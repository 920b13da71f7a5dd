"""Tests for the self-verification suites: report files, pass/fail echo,
and the fault-injection path that must catch a corrupted weight table."""

import hashlib

import pytest

from chowla import verify
from chowla.ideal_arith import mu_ideal
from chowla.verify import SUITES, CheckResult, run_suite

# sha256 of each report of `run_suite("all")`: the bytes have not changed
# since the first release of the suites, and the benchmark pins the same.
REPORT_SHA256 = {
    "postulates_1.csv": "800d70551978ebffb47832eb6c70d810979ec8343b96902eb25ae2ee207dafb9",
    "postulates_2.csv": "e89e81121991df57818e44002635b92fbba6acb7b015c7eda120d2654acd0f3b",
    "postulates_3.csv": "3e81a8f8d610bf47bfe28b9058da15dc158601ff18801a702afd2da8b25b486b",
    "verify_identities.csv": "4c97fb962f12faf30d8ad9b2128eec8bd51ccf850ad90de29cb78321602bbdcc",
    "verify_postulates.csv": "90ccd7d170878070d3c01488a611c0d0d1fa408632b53e5873336e77aebe0625",
    "verify_sieve.csv": "5d1d4e7be02a05e7971fc71b4ee466e6d21c6213687d704a40e67e2d216fc6d1",
}


def test_suite_names():
    assert SUITES == ("identities", "postulates", "sieve", "all")


def test_check_result_csv_sanitizes_detail():
    ok = CheckResult("alpha", 5, 0)
    assert ok.ok and ok.csv() == "alpha,5,0,pass,"
    bad = CheckResult("beta", 9, 2, "b=x,y\nz")
    assert not bad.ok
    assert bad.csv() == "beta,9,2,fail,b=x;y z"


def test_identities_suite_passes(tmp_path):
    echoed = []
    assert run_suite("identities", out_dir=str(tmp_path), echo=echoed.append) == 0
    lines = (tmp_path / "verify_identities.csv").read_text().splitlines()
    assert lines[0] == "check,cases,failures,status,detail"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == [
        "seven_window_identity",
        "window_groupings",
        "mobius_window_flip",
        "divisor_pairing_bound",
    ]
    assert all(",pass," in ln for ln in lines[1:])
    assert all(msg.startswith("[PASS]") for msg in echoed)


def test_sieve_suite_passes(tmp_path):
    assert run_suite("sieve", out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "verify_sieve.csv").read_text().splitlines()
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == [
        "grid_vs_trial_division",
        "weights_are_mobius",
        "upper_bound_truncation",
        "buchstab_telescope",
        "divisor_window_exchange",
    ]
    assert all(",pass," in ln for ln in lines[1:])
    # the grid check covers the whole 51x51 box
    grid_row = lines[1].split(",")
    assert grid_row[1] == "2601"


def test_all_suites_write_every_report(tmp_path):
    assert run_suite("all", out_dir=str(tmp_path)) == 0
    expected = {
        "verify_identities.csv",
        "verify_postulates.csv",
        "verify_sieve.csv",
        "postulates_1.csv",
        "postulates_2.csv",
        "postulates_3.csv",
    }
    assert expected <= {p.name for p in tmp_path.iterdir()}
    for k in (1, 2, 3):
        lines = (tmp_path / f"postulates_{k}.csv").read_text().splitlines()
        assert lines[0] == "postulate,params,ratio,status"
        assert all(ln.endswith(",pass") for ln in lines[1:])
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert digests == REPORT_SHA256


# sha256 of the ideals on which each h of the identities suite is first
# called, one repr a line: the order of its rng draws
IDENTITIES_DRAWS_SHA256 = "9787c15051a8b1ce6cd0aa510f7ad2a506a839776211200b713c74dfcac98011"


def test_identities_rng_draw_order(tmp_path, monkeypatch):
    """The reports count only passes and failures, so a walk that met the
    ideals in another order would draw other h values and still write the
    same bytes; the order of first calls is pinned here instead."""
    first_calls = []
    memo_h = verify._memo_h

    def recording_memo_h(rng):
        h = memo_h(rng)
        seen = set()

        def recorded(d):
            if d not in seen:
                seen.add(d)
                first_calls.append(repr(d))
            return h(d)

        return recorded

    monkeypatch.setattr(verify, "_memo_h", recording_memo_h)
    assert run_suite("identities", out_dir=str(tmp_path)) == 0
    assert len(first_calls) == 3295
    digest = hashlib.sha256("\n".join(first_calls).encode()).hexdigest()
    assert digest == IDENTITIES_DRAWS_SHA256


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything", out_dir=str(tmp_path))
    with pytest.raises(ValueError) as info:
        run_suite("nonsense", out_dir=str(tmp_path / "reports"))
    assert str(info.value) == "unknown suite 'nonsense'; choose from identities, postulates, sieve, all"
    assert not (tmp_path / "reports").exists()


def test_fault_injection_is_caught(tmp_path):
    flipped = []

    def negate_one_weight(W):
        for d in sorted(W.weights, key=lambda i: (repr(i))):
            if not d.is_unit:
                W.weights[d] = -W.weights[d]
                flipped.append(d)
                return

    echoed = []
    code = run_suite(
        "sieve", out_dir=str(tmp_path), echo=echoed.append, _corrupt=negate_one_weight
    )
    assert code == 1
    assert len(flipped) == 1
    lines = (tmp_path / "verify_sieve.csv").read_text().splitlines()
    wt_line = next(ln for ln in lines if ln.startswith("weights_are_mobius"))
    _, cases, failures, status, detail = wt_line.split(",", 4)
    assert status == "fail" and failures == "1"
    # the report names the corrupted ideal and both values
    assert repr(flipped[0]).replace(",", ";") in detail
    assert f"mobius={mu_ideal(flipped[0])}" in detail
    assert any(msg.startswith("[FAIL] sieve:weights_are_mobius") for msg in echoed)
    assert any("counterexample" in msg for msg in echoed)
    # every other sieve check still passes
    others = [ln for ln in lines[1:] if not ln.startswith("weights_are_mobius")]
    assert all(",pass," in ln for ln in others)

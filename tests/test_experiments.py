"""Tests for the convergence-experiment layer: envelope, rows, tables,
channel aliases, and byte-determinism of the CSV output."""

import math

import pytest

from chowla import (
    BinaryCubicForm,
    ExperimentConfig,
    chowla_average,
    convergence_table,
    factor_sieve,
    parse_coset,
    parse_region,
    write_table,
)
from chowla.experiments import CSV_HEADER, canonical_alpha, envelope

from helpers import grid_mu_sums

FORM = BinaryCubicForm(1, 0, 0, 2)
BOX = parse_region("box:-1,1,-1,1")


def _cfg(**kw):
    base = dict(
        form=FORM,
        alpha="mu",
        region=BOX,
        N_list=[10, 25],
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- envelope


def test_envelope_undefined_at_small_N():
    assert envelope(2) is None
    assert envelope(15) is None
    assert envelope(math.exp(math.e)) is None
    assert envelope(15.2) is not None


def test_envelope_frozen_values():
    assert envelope(3000) == pytest.approx(1.713218634499775, rel=1e-12)
    assert envelope(1e6) == pytest.approx(3.321801860661395, rel=1e-12)
    assert envelope(100) == pytest.approx(0.500136890837725, rel=1e-12)
    # the envelope grows over any practical sampling range
    assert envelope(3000) < envelope(1e6)
    samples = [envelope(10.0**k) for k in range(2, 13)]
    assert samples == sorted(samples)


def test_envelope_epsilon_dampens():
    # log log log N is below 1 here, so a smaller power enlarges the value
    assert envelope(3000, 0.5) > envelope(3000, 1.0)


# ------------------------------------------------------------- channels


def test_canonical_alpha_names_and_aliases():
    assert canonical_alpha("mu") == "mu"
    assert canonical_alpha("Liouville") == "lambda"
    assert canonical_alpha(" omega_sign ") == "omega"
    assert canonical_alpha("LAMBDA") == "lambda"
    with pytest.raises(ValueError, match="unknown parity channel"):
        canonical_alpha("sigma")


def test_config_validation():
    assert _cfg(alpha="omega_sign").alpha == "omega"
    with pytest.raises(ValueError, match="strictly increasing"):
        _cfg(N_list=[10, 10])
    with pytest.raises(ValueError, match="positive"):
        _cfg(N_list=[])
    with pytest.raises(ValueError, match="positive"):
        _cfg(N_list=[0, 5])
    with pytest.raises(ValueError, match="threads"):
        _cfg(threads=0)
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            _cfg(epsilon=eps)


# ------------------------------------------------------------- rows


def test_row_against_independent_oracle():
    points, mu_sum = grid_mu_sums(FORM, 10)
    assert (points, mu_sum) == (440, -14)
    row = chowla_average(_cfg(), 10)
    assert (row.points, row.total) == (440, -14)
    assert row.average == pytest.approx(-14 / 440)
    assert row.envelope is None and row.ratio is None
    assert row.csv() == "10,440,-14,-0.031818181818181815,NA,NA"


def test_row_with_envelope_frozen():
    row = chowla_average(_cfg(), 25)
    assert row.csv() == (
        "25,2600,46,0.01769230769230769,"
        "0.09061842398987782,0.19523963133903036"
    )
    assert row.ratio == pytest.approx(row.average / row.envelope)


def test_average_is_bounded():
    for alpha in ("mu", "lambda", "omega"):
        for N in (5, 12):
            row = chowla_average(_cfg(alpha=alpha), N)
            assert abs(row.average) <= 1.0
            assert abs(row.total) <= row.points


def test_empty_coset_row():
    cfg = _cfg(
        coset=parse_coset("coset:2,0,0,2;0,0"),  # both coordinates even
        coprime_only=True,
        N_list=[10],
    )
    assert chowla_average(cfg, 10).csv() == "10,0,0,0.0,NA,NA"


def test_rows_are_independent():
    table = convergence_table(_cfg())
    assert [r.N for r in table] == [10, 25]
    solo = chowla_average(_cfg(), 25)
    assert table[1] == solo


# (region, coset, coprime_only, schedule): the first six hold the origin
# and share one sieve, the last is sieved row by row
SCHEDULES = (
    ("box:-1,1,-1,1", None, False, [10, 25, 40]),
    ("disc:0,0,1", None, False, [7, 19, 30]),
    ("poly:0,1;-1,-1;1,-1", None, False, [6, 15, 31]),
    ("disc:1/2,0,1", "coset:3,0,1,1;1,2", True, [8, 21, 35]),
    ("box:0,1,0,1", None, False, [3, 11, 29]),  # the origin on the boundary
    ("disc:0,0,1/3", None, False, [1, 4, 9]),  # N = 1 holds the origin alone
    ("box:1,2,1,2", None, False, [10, 20]),  # no origin: N*S is not in 20*S
)


@pytest.mark.parametrize("case", range(len(SCHEDULES)))
def test_shared_sieve_matches_rows_sieved_alone(case, monkeypatch):
    """Every row of a table equals its own one-row call, on every channel,
    with the grid cut into many bands and at 1, 2 and 3 threads; a table
    sieves once exactly when its unit region holds the origin."""
    region, coset, coprime, schedule = SCHEDULES[case]
    cfgs = {
        alpha: _cfg(alpha=alpha, region=parse_region(region), N_list=schedule,
                    coset=parse_coset(coset) if coset else None, coprime_only=coprime)
        for alpha in ("mu", "lambda", "omega")
    }
    alone = {alpha: [chowla_average(cfg, N) for N in schedule] for alpha, cfg in cfgs.items()}
    if region == "disc:0,0,1/3":
        assert alone["mu"][0].points == 0
    if region == "box:-1,1,-1,1":
        assert [(r.points, r.total) for r in alone["mu"]] == [grid_mu_sums(FORM, N) for N in schedule]
    sieves = []
    strike_table = factor_sieve._strike_table
    monkeypatch.setattr(factor_sieve, "_strike_table", lambda spec: sieves.append(spec) or strike_table(spec))
    last = factor_sieve._make_spec(FORM, parse_region(region).scale(schedule[-1]), None, False)
    # bands of about a twelfth of the box's rows: the half of a symmetric
    # grid that is sieved is still cut into several
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", max(1, last.height // 12) * last.width)
    for threads in (1, 2, 3):
        for alpha, cfg in cfgs.items():
            cfg.threads = threads
            sieves.clear()
            assert convergence_table(cfg) == alone[alpha]
            shared = cfg.region.contains(0, 0)
            assert len(sieves) == (1 if shared else len(schedule))
    assert len(factor_sieve._bands(sieves[-1])) >= 3


# ------------------------------------------------------------- tables


def test_write_table_bytes(tmp_path):
    out = tmp_path / "table.csv"
    rows = convergence_table(_cfg())
    write_table(str(out), rows)
    text = out.read_bytes().decode()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "N,points,sum,average,envelope,ratio"
    assert lines[1:] == [r.csv() for r in rows]
    assert text.endswith("\n")


def test_write_table_to_stdout_is_the_file_bytes(tmp_path, capsys):
    rows = convergence_table(_cfg())
    out = tmp_path / "table.csv"
    write_table(str(out), rows)
    capsys.readouterr()
    write_table(None, rows)
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_table_bytes_thread_invariant(tmp_path):
    outs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}.csv"
        write_table(str(out), convergence_table(_cfg(threads=threads, N_list=[10, 25, 40])))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_table_channels_differ():
    mu_rows = convergence_table(_cfg(alpha="mu", N_list=[25]))
    om_rows = convergence_table(_cfg(alpha="omega", N_list=[25]))
    assert mu_rows[0].points == om_rows[0].points
    assert mu_rows[0].total != om_rows[0].total

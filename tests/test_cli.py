"""End-to-end tests of the command-line interface: argument parsing,
config-file merging, exit codes, and the console entry point."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chowla
from chowla import (
    ExactRangeError,
    ExperimentConfig,
    convergence_table,
    factor_sieve,
    parse_form,
    parse_region,
)
from chowla.cli import EXIT_ASSERTION, EXIT_OK, EXIT_RANGE, EXIT_USAGE, main

ROW_10 = "10,440,-14,-0.031818181818181815,NA,NA"
ROW_25 = "25,2600,46,0.01769230769230769,0.09061842398987782,0.19523963133903036"
HEADER = "N,points,sum,average,envelope,ratio"

AVG_ARGS = [
    "avg",
    "--form", "1,0,0,2",
    "--alpha", "mu",
    "--region", "box:-1,1,-1,1",
    "--N", "10,25",
]


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_ASSERTION, EXIT_USAGE, EXIT_RANGE) == (0, 1, 2, 3)


def test_avg_to_stdout(capsys):
    assert main(AVG_ARGS) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [HEADER, ROW_10, ROW_25]


def test_avg_to_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(AVG_ARGS + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines() == [HEADER, ROW_10, ROW_25]


def test_avg_threads_do_not_change_bytes(capsys):
    main(AVG_ARGS)
    single = capsys.readouterr().out
    main(AVG_ARGS + ["--threads", "3"])
    assert capsys.readouterr().out == single


def test_config_file_fills_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "form = 1,0,0,2\n"
        "alpha = lambda\n"
        "region = box:-1,1,-1,1\n"
        "N = 10\n"
    )
    assert main(["avg", "--config", str(cfg)]) == EXIT_OK
    lam_row = capsys.readouterr().out.splitlines()[1]
    # explicit flag overrides the file value
    assert main(["avg", "--config", str(cfg), "--alpha", "mu"]) == EXIT_OK
    mu_row = capsys.readouterr().out.splitlines()[1]
    assert mu_row == ROW_10
    assert lam_row != mu_row
    assert lam_row.startswith("10,440,")


def test_config_hyphen_key_and_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "form=1,0,0,2\nalpha=mu\nregion=box:-1,1,-1,1\nn=5\ncoprime-only=true\n"
    )
    assert main(["avg", "--config", str(cfg)]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("5,80,")  # eighty coprime points in the 5-box


@pytest.mark.parametrize(
    "argv",
    [
        ["avg", "--form", "1,0,0,-8", "--alpha", "mu", "--region", "box:-1,1,-1,1", "--N", "5"],
        ["avg", "--form", "2,0,0,4", "--alpha", "mu", "--region", "box:-1,1,-1,1", "--N", "5"],
        ["avg", "--form", "1,0,0,2", "--alpha", "sigma", "--region", "box:-1,1,-1,1", "--N", "5"],
        ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "box:-1,1,-1,1", "--N", "5,5"],
        ["avg", "--alpha", "mu", "--region", "box:-1,1,-1,1", "--N", "5"],
        ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "ring:1", "--N", "5"],
        ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "box:0,1/0,0,1", "--N", "10"],
        ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "disc:0,0,1/0", "--N", "10"],
        ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "poly:0,0;1,0;0,1/0", "--N", "10"],
        AVG_ARGS + ["--eps", "nan"],
        AVG_ARGS + ["--eps", "inf"],
        ["verify", "--suite", "nonsense"],
        ["verify"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "chowla:" in capsys.readouterr().err


def test_bad_config_contents_exit_2(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("form=1,0,0,2\nwibble=3\n")
    assert main(["avg", "--config", str(bad_key)]) == EXIT_USAGE
    assert "wibble" in capsys.readouterr().err

    no_eq = tmp_path / "no_eq.cfg"
    no_eq.write_text("form 1,0,0,2\n")
    assert main(["avg", "--config", str(no_eq)]) == EXIT_USAGE
    assert "expected key=value" in capsys.readouterr().err

    for eps in ("nan", "inf"):
        bad_eps = tmp_path / "bad_eps.cfg"
        bad_eps.write_text(f"form=1,0,0,2\nalpha=mu\nregion=box:-1,1,-1,1\nN=100\neps={eps}\n")
        assert main(["avg", "--config", str(bad_eps)]) == EXIT_USAGE
        assert "epsilon must be finite" in capsys.readouterr().err

    bad_bool = tmp_path / "bad_bool.cfg"
    bad_bool.write_text("coprime-only=maybe\n")
    assert main(["avg", "--config", str(bad_bool)]) == EXIT_USAGE
    assert "boolean" in capsys.readouterr().err

    assert main(["avg", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_config_threads_and_false_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("form=1,0,0,2\nalpha=mu\nregion=box:-1,1,-1,1\nN=10\nthreads=2\ncoprime_only=false\n")
    assert main(["avg", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [HEADER, ROW_10]


def test_sieve_corruption_exit_1(capsys, monkeypatch):
    def corrupt(f, primes):
        raise factor_sieve.SieveCorruptionError("planted")

    monkeypatch.setattr(factor_sieve, "_root_table", corrupt)
    assert main(AVG_ARGS) == EXIT_ASSERTION
    assert capsys.readouterr().err == "chowla: assertion failure: planted\n"


def test_large_constant_term_exit_3(capsys):
    """The irreducibility test runs before the value guard and must not
    scan the divisors of d near 10^16."""
    argv = ["avg", "--form", "1,0,0,10000000000000061", "--alpha", "mu",
            "--region", "box:-1,1,-1,1", "--N", "10"]
    assert main(argv) == EXIT_RANGE
    assert "arithmetic range" in capsys.readouterr().err


def test_oversized_scale_exit_3(capsys):
    argv = [
        "avg",
        "--form", "1,0,0,2",
        "--alpha", "mu",
        "--region", "box:-1,1,-1,1",
        "--N", "3000000",
    ]
    assert main(argv) == EXIT_RANGE
    assert "arithmetic range" in capsys.readouterr().err


def test_schedule_guards_run_before_any_sieve(tmp_path, capsys, monkeypatch):
    """A table whose last row is past the value guard fails on that row's
    half-width before any row is sieved, and writes no CSV."""
    def refuse(f, primes):
        raise AssertionError("sieved before the guards")

    monkeypatch.setattr(factor_sieve, "_root_table", refuse)
    out = tmp_path / "rows.csv"
    argv = ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "box:-1,1,-1,1",
            "--N", "10,3000000", "--out", str(out)]
    assert main(argv) == EXIT_RANGE
    message = "grid values may exceed the exact 64-bit sieve range (half-width 3000000)"
    assert capsys.readouterr().err == f"chowla: arithmetic range: {message}\n"
    assert not out.exists()
    cfg = ExperimentConfig(form=parse_form("1,0,0,2"), alpha="mu",
                           region=parse_region("box:-1,1,-1,1"), N_list=[10, 3000000])
    with pytest.raises(ExactRangeError) as info:
        convergence_table(cfg)
    assert str(info.value) == message


def test_schedule_off_the_origin_sieves_each_row_before_the_next_guard(tmp_path, capsys, monkeypatch):
    """A unit region without the origin is sieved row by row: each row
    passes its guards and is sieved before the next row is checked, so the
    first row is sieved before the last fails; still no CSV is written."""
    sieved = []
    root_table = factor_sieve._root_table
    monkeypatch.setattr(factor_sieve, "_root_table", lambda f, primes: sieved.append(f) or root_table(f, primes))
    out = tmp_path / "rows.csv"
    argv = ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "box:1,2,1,2",
            "--N", "10,2000000", "--out", str(out)]
    assert main(argv) == EXIT_RANGE
    message = "grid values may exceed the exact 64-bit sieve range (half-width 4000000)"
    assert capsys.readouterr() == ("", f"chowla: arithmetic range: {message}\n")
    assert len(sieved) == 1
    assert not out.exists()


def test_unknown_suite_names_the_suites(tmp_path, capsys):
    assert main(["verify", "--suite", "nonsense", "--out", str(tmp_path / "reports")]) == EXIT_USAGE
    message = "unknown suite 'nonsense'; choose from identities, postulates, sieve, all"
    assert capsys.readouterr().err == f"chowla: {message}\n"
    assert not (tmp_path / "reports").exists()


def test_verify_suite_runs(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--suite", "identities", "--out", str(out)]) == EXIT_OK
    echoed = capsys.readouterr().out
    assert "[PASS]" in echoed and "[FAIL]" not in echoed
    report = out / "verify_identities.csv"
    lines = report.read_text().splitlines()
    assert lines[0] == "check,cases,failures,status,detail"
    assert len(lines) > 1 and all(",pass," in ln for ln in lines[1:])


def _pyproject_project() -> dict:
    """The ``[project]`` table of the checkout's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_matches_pyproject():
    assert chowla.__version__ == _pyproject_project()["version"]


def test_console_script_entry_point():
    """Run the console entry that pyproject declares, in a fresh interpreter,
    exactly as the wrapper an installer writes: ``sys.exit(main())``."""
    entry = _pyproject_project()["scripts"]["chowla"]
    assert entry == "chowla.cli:main"
    module, attr = entry.split(":")
    # The child must import the same chowla as this process, ahead of any
    # installed copy.
    env = dict(os.environ)
    src = str(Path(chowla.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr} as m; sys.exit(m())",
            "avg",
        ]
        + AVG_ARGS[1:],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [HEADER, ROW_10, ROW_25]


@pytest.mark.skipif(
    shutil.which("chowla") is None, reason="chowla console script not installed"
)
def test_installed_console_script():
    proc = subprocess.run(
        ["chowla", "avg"] + AVG_ARGS[1:],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [HEADER, ROW_10, ROW_25]

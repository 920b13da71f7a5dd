"""Command-line interface.

Two subcommands:

* ``chowla avg`` — convergence table of parity-channel averages of an
  irreducible binary cubic form over a scaled region (optionally cut to a
  lattice coset or to coprime points), written as CSV.
* ``chowla verify`` — run the self-verification suites and write their
  CSV reports.

A flat ``key=value`` config file can pre-fill any flag; explicit flags
override the file.  Exit codes: 0 success, 1 assertion failure, 2 usage
error, 3 arithmetic-range error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cubic_form import ExactRangeError, parse_form
from .experiments import ExperimentConfig, convergence_table, write_table
from .factor_sieve import SieveCorruptionError
from .region_lattice import parse_coset, parse_region
from .verify import run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowla",
        description="Averages of multiplicative parity over binary cubic form values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    avg = sub.add_parser("avg", help="compute a convergence table of channel averages")
    avg.add_argument("--config", help="flat key=value file pre-filling the flags")
    avg.add_argument("--form", help="integer coefficients a,b,c,d of ax^3+bx^2y+cxy^2+dy^3")
    avg.add_argument("--alpha", help="parity channel: mu | lambda | omega")
    avg.add_argument("--region", help="unit-region descriptor: box:x0,x1,y0,y1 | disc:cx,cy,r | poly:x1,y1;x2,y2;...")
    avg.add_argument("--coset", help="lattice coset descriptor coset:b11,b21,b12,b22;ox,oy (not scaled)")
    avg.add_argument("--N", dest="N", help="comma-separated strictly increasing scale factors")
    avg.add_argument("--coprime-only", dest="coprime_only", action="store_true", default=None,
                     help="restrict to points with gcd(x, y) = 1")
    avg.add_argument("--eps", type=float, help="envelope exponent epsilon (default 1)")
    avg.add_argument("--threads", type=int, help="worker threads (default 1; output is identical)")
    avg.add_argument("--out", help="CSV output path (default: stdout)")

    ver = sub.add_parser("verify", help="run a self-verification suite")
    ver.add_argument("--config", help="flat key=value file pre-filling the flags")
    ver.add_argument("--suite", help="identities | postulates | sieve | all")
    ver.add_argument("--out", help="report directory (default: verify_reports)")
    return parser


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            norm_key = key.strip().lower().replace("-", "_")
            if norm_key == "n":
                norm_key = "N"
            values[norm_key] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file; flags keep priority."""
    if not getattr(args, "config", None):
        return
    values = _read_config(args.config)
    for key, text in values.items():
        if key in ("config", "command"):
            continue
        if not hasattr(args, key):
            raise ValueError(f"config key {key!r} does not match any flag")
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        if key == "coprime_only":
            low = text.lower()
            if low in _TRUE_WORDS:
                setattr(args, key, True)
            elif low in _FALSE_WORDS:
                setattr(args, key, False)
            else:
                raise ValueError(f"config key coprime_only wants a boolean, got {text!r}")
        elif key in ("eps",):
            setattr(args, key, float(text))
        elif key in ("threads",):
            setattr(args, key, int(text))
        else:
            setattr(args, key, text)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"missing required value for {flag} (flag or config file)")


def _run_avg(args: argparse.Namespace) -> int:
    _merge_config(args)
    _require(args, "form", "alpha", "region", "N")
    form = parse_form(args.form)
    region = parse_region(args.region)
    coset = parse_coset(args.coset) if args.coset else None
    n_list = [int(t) for t in args.N.replace(" ", "").split(",") if t]
    cfg = ExperimentConfig(
        form=form,
        alpha=args.alpha,
        region=region,
        coset=coset,
        N_list=n_list,
        coprime_only=bool(args.coprime_only),
        epsilon=args.eps if args.eps is not None else 1.0,
        threads=args.threads if args.threads is not None else 1,
    )
    write_table(args.out, convergence_table(cfg))
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    _merge_config(args)
    _require(args, "suite")
    out_dir = args.out if args.out is not None else "verify_reports"
    return run_suite(args.suite, out_dir=out_dir, echo=print)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "avg":
            return _run_avg(args)
        return _run_verify(args)
    except ExactRangeError as exc:
        print(f"chowla: arithmetic range: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (ValueError, OSError) as exc:
        print(f"chowla: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SieveCorruptionError, ArithmeticError, AssertionError) as exc:
        print(f"chowla: assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())

"""Convergence experiments: averages of parity channels over growing regions.

For a fixed irreducible binary cubic form, region shape, and optional lattice
coset, compute the average of a parity channel over the integer points of the
region scaled by each N in a schedule, and compare the decay of the average
against a slowly-varying envelope.  Output is a deterministic CSV table whose
bytes do not depend on the thread count.

The parity of f(x, y) does not depend on N, so when the unit region holds the
origin (an exact rational test), every N*S lies in N_max*S and the schedule is
sieved once, on N_max's grid, each row read off it band by band.  A region
without the origin is sieved row by row.  Either way every row passes the
grid guards, in schedule order, before its sieve runs.  A region closed
under negation (a box or disc centred at 0, say) on a coset that is too, or
on none, is sieved on its rows y >= 0 alone, row 0 counted once and every
other row twice: f(-x, -y) = -f(x, y) has the same parities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .cubic_form import BinaryCubicForm
from .factor_sieve import parity_grids
from .region_lattice import ConvexRegion, RowForm

__all__ = [
    "envelope",
    "canonical_alpha",
    "ConvergenceRow",
    "ExperimentConfig",
    "chowla_average",
    "convergence_table",
    "write_table",
    "CSV_HEADER",
]

CSV_HEADER = "N,points,sum,average,envelope,ratio"

_E_TO_E = math.exp(math.e)

_ALPHAS = ("mu", "lambda", "omega")
_ALPHA_ALIASES = {"liouville": "lambda", "omega_sign": "omega"}


def canonical_alpha(name: str) -> str:
    """Map accepted channel spellings onto {mu, lambda, omega}."""
    key = name.strip().lower()
    key = _ALPHA_ALIASES.get(key, key)
    if key not in _ALPHAS:
        raise ValueError(f"unknown parity channel {name!r}")
    return key


def envelope(N: float, eps: float = 1.0) -> Optional[float]:
    """(log log N)^4 (log log log N)^eps / log N, defined for N > e^e."""
    if N <= _E_TO_E:
        return None
    ln = math.log(N)
    lln = math.log(ln)
    llln = math.log(lln)
    return lln**4 * llln**eps / ln


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    points: int
    total: int
    average: float
    envelope: Optional[float]
    ratio: Optional[float]

    def csv(self) -> str:
        env = "NA" if self.envelope is None else _fmt(self.envelope)
        rat = "NA" if self.ratio is None else _fmt(self.ratio)
        return f"{self.N},{self.points},{self.total},{_fmt(self.average)},{env},{rat}"


@dataclass
class ExperimentConfig:
    form: BinaryCubicForm
    alpha: str
    region: ConvexRegion
    N_list: Sequence[int]
    coset: Optional[RowForm] = None
    coprime_only: bool = False
    epsilon: float = 1.0
    threads: int = 1

    def __post_init__(self):
        self.alpha = canonical_alpha(self.alpha)
        ns = list(self.N_list)
        if not ns or any(n <= 0 for n in ns):
            raise ValueError("N schedule must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("N schedule must be strictly increasing")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")


def _rows(cfg: ExperimentConfig, Ns: Sequence[int]) -> list[ConvergenceRow]:
    """The rows of Ns, read off one sieve of the largest N's grid."""
    grids = parity_grids(
        cfg.form,
        [cfg.region.scale(N) for N in Ns],
        cfg.coset,
        coprime_only=cfg.coprime_only,
        threads=cfg.threads,
    )
    rows = []
    for N, grid in zip(Ns, grids):
        total = grid.sum_for(cfg.alpha)
        average = total / grid.points if grid.points else 0.0
        env = envelope(N, cfg.epsilon)
        ratio = None if env is None else average / env
        rows.append(ConvergenceRow(N, grid.points, total, average, env, ratio))
    return rows


def chowla_average(cfg: ExperimentConfig, N: int) -> ConvergenceRow:
    """One row: average the chosen channel over the N-scaled region."""
    return _rows(cfg, [N])[0]


def convergence_table(cfg: ExperimentConfig) -> list[ConvergenceRow]:
    """Every row of the schedule; one sieve if the unit region holds the
    origin (then N*S lies in N_max*S), else one sieve per row."""
    if cfg.region.contains(0, 0):
        return _rows(cfg, cfg.N_list)
    return [chowla_average(cfg, N) for N in cfg.N_list]


def write_table(path: Optional[str], rows: Sequence, header: str = CSV_HEADER) -> None:
    """The CSV table of header and each row's csv(), to the file at path, or
    to stdout if path is None."""
    text = "\n".join([header] + [r.csv() for r in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

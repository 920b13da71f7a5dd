"""Workload definitions shared by the benchmark parent (run.py) and each
repetition's child process (child.py).

Every workload exists at two sizes: ``full`` is what a benchmark run
measures, ``toy`` is what the self-test runs.  The full sizes are scaled
so that one repetition takes 2 to 4 seconds on a 2-core Xeon: a 30-second
run then holds 6 to 12 fresh-interpreter repetitions and reports their
median, which machine noise makes necessary.
"""

from __future__ import annotations

import random

FORM_TABLE = "1,0,0,2"
REGION_BOX = "box:-1,1,-1,1"

FORM_ROW = "3,-1,2,-5"
REGION_DISC = "disc:0,0,1"
COSET_BASIS = "3,0,1,1"  # columns (3, 0) and (1, 1): x - y fixed mod 3

# Each workload stresses a different pair of layers; see WHY.
WHY = {
    "avg-table": "one form over a schedule of N, so per-form root caches and "
    "one-sieve-per-table changes show; plain box, one thread",
    "avg-row": "one row with no work shared across rows: non-monic form with "
    "negative coefficients and 3 | a, disc, coset, coprime mask, 2 threads",
    "verify-all": "the verify CLI: Vaughan identities, sieve weights and the "
    "postulate battery, with almost no grid sieve",
    "ideal-remainder": "criterion 8 through the library: cold factor_prime "
    "cache, ideal_from_point, sieve_grid and A_d for every prime power",
}

SIZES = {
    "full": {
        "avg-table": {"N": "100,200,300,400"},
        "avg-row": {"N": "500"},
        "verify-all": {"suite": "all"},
        "ideal-remainder": {"N": 40, "norm_cap": 1000},
    },
    "toy": {
        "avg-table": {"N": "100,300"},
        "avg-row": {"N": "60"},
        "verify-all": {"suite": "sieve"},
        "ideal-remainder": {"N": 20, "norm_cap": 100},
    },
}

NAMES = tuple(WHY)


def row_offset(seed: int) -> tuple[int, int]:
    """The seed's coset offset for avg-row; the only input a seed changes."""
    rng = random.Random(seed)
    return rng.randint(-9, 9), rng.randint(-9, 9)


def coset_class(offset: tuple[int, int]) -> int:
    """Which of the lattice's three cosets the offset selects."""
    return (offset[0] - offset[1]) % 3


def row_coset(seed: int) -> str:
    ox, oy = row_offset(seed)
    return f"coset:{COSET_BASIS};{ox},{oy}"


def avg_argv(workload: str, size: str, seed: int, out: str) -> list[str]:
    """The `chowla avg` command line of an avg workload."""
    n = SIZES[size][workload]["N"]
    if workload == "avg-table":
        return ["avg", "--form", FORM_TABLE, "--alpha", "mu", "--region", REGION_BOX,
                "--N", n, "--threads", "1", "--out", out]
    return ["avg", "--form", FORM_ROW, "--alpha", "lambda", "--region", REGION_DISC,
            "--coset", row_coset(seed), "--coprime-only", "--N", n, "--threads", "2",
            "--out", out]


def verify_argv(size: str, out_dir: str) -> list[str]:
    return ["verify", "--suite", SIZES[size]["verify-all"]["suite"], "--out", out_dir]

"""Time a long convergence table against its last row alone.

    PYTHONPATH=src python3 scripts/bench_schedule.py [--rows 20] [--N-max 1500] [--reps 5]
        [--form 1,0,0,2] [--region box:-1,1,-1,1] [--coset coset:...] [--coprime-only]

The table is the form over the unit region (by default x^3 + 2y^3 over the
box [-1, 1]^2, all points) at N = N_max/rows, 2*N_max/rows, ..., N_max on
one thread, and the row is chowla_average at N_max alone.  --coset and
--coprime-only cut both to the points `chowla avg` would take.  The two
alternate, table first on even repetitions; the script prints one JSON
record with the machine (core count, Python and numpy versions), every
time and the ratio of medians.  Both sides give the
same last row, which is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from chowla import (
    ExperimentConfig,
    chowla_average,
    convergence_table,
    parse_coset,
    parse_form,
    parse_region,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=20)
    ap.add_argument("--N-max", dest="n_max", type=int, default=1500)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--form", default="1,0,0,2")
    ap.add_argument("--region", default="box:-1,1,-1,1")
    ap.add_argument("--coset", default=None)
    ap.add_argument("--coprime-only", dest="coprime_only", action="store_true")
    args = ap.parse_args()
    schedule = [args.n_max * (i + 1) // args.rows for i in range(args.rows)]
    cfg = ExperimentConfig(
        form=parse_form(args.form),
        alpha="mu",
        region=parse_region(args.region),
        coset=parse_coset(args.coset) if args.coset else None,
        N_list=schedule,
        coprime_only=args.coprime_only,
        threads=1,
    )
    runs = {
        "table": lambda: convergence_table(cfg)[-1],
        "row": lambda: chowla_average(cfg, args.n_max),
    }
    times: dict[str, list[float]] = {"table": [], "row": []}
    for rep in range(args.reps):
        order = ("table", "row") if rep % 2 == 0 else ("row", "table")
        last = []
        for name in order:
            t0 = time.perf_counter()
            last.append(runs[name]())
            times[name].append(time.perf_counter() - t0)
        if last[0] != last[1]:
            raise SystemExit(f"last rows differ: {last[0].csv()} vs {last[1].csv()}")
    med = {name: statistics.median(ts) for name, ts in times.items()}
    print(json.dumps({
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "schedule": schedule,
        "table_s": times["table"],
        "row_s": times["row"],
        "table_median_s": med["table"],
        "row_median_s": med["row"],
        "table_over_row": med["table"] / med["row"],
    }, indent=1))


if __name__ == "__main__":
    main()

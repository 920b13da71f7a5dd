"""One benchmark repetition, run by run.py in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SIZE SEED LAUNCH OUT_DIR MODE

LAUNCH is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s counts interpreter
start, ``import chowla`` and building the inputs.  MODE is ``plain``,
``trace`` (install spans.py before the timed work) or ``threads`` (time
``parity_grid`` on the avg-row input at 1 and then 2 threads).  The outputs
go to OUT_DIR and the measurements to OUT_DIR/result.json; run.py checks
the outputs.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    workload, size, seed, launch, out_dir, mode = argv
    seed, launch = int(seed), float(launch)

    import chowla
    import chowla.cli

    params = workloads.SIZES[size][workload]
    if workload in ("avg-table", "avg-row"):
        cli_argv = workloads.avg_argv(workload, size, seed, os.path.join(out_dir, "table.csv"))
        form = chowla.parse_form(cli_argv[cli_argv.index("--form") + 1])
        region = chowla.parse_region(cli_argv[cli_argv.index("--region") + 1])
        coset = None
        if "--coset" in cli_argv:
            coset = chowla.parse_coset(cli_argv[cli_argv.index("--coset") + 1])
    elif workload == "verify-all":
        cli_argv = workloads.verify_argv(size, os.path.join(out_dir, "reports"))
    else:
        K = chowla.build_field(chowla.parse_form(workloads.FORM_TABLE))
        box = chowla.parse_region(workloads.REGION_BOX).scale(params["N"])
        norm_cap = params["norm_cap"]
    setup_s = time.monotonic() - launch

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install()

    result: dict = {"setup_s": setup_s, "exit_code": 0}
    t0 = time.perf_counter()
    if mode == "threads":
        scaled = region.scale(int(params["N"]))
        probe = {}
        for threads in (1, 2):
            t1 = time.perf_counter()
            grid = chowla.parity_grid(form, scaled, coset, coprime_only=True, threads=threads)
            probe[str(threads)] = {"s": time.perf_counter() - t1,
                                   "points": grid.points, "sum": grid.lam_sum}
        result["threads"] = probe
    elif workload == "ideal-remainder":
        remainders = _remainders(chowla, K, box, norm_cap)
    else:
        result["exit_code"] = chowla.cli.main(cli_argv)
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = peak_rss_mb()

    if workload == "ideal-remainder":
        with open(os.path.join(out_dir, "remainders.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{r.numerator}/{r.denominator}\n" for r in remainders)
    if tracer is not None:
        result["spans"] = tracer.table()
        result["counters"] = tracer.counters
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    Not getrusage(RUSAGE_SELF): Linux carries the parent's high-water mark
    across fork and exec into ru_maxrss, so a child of a larger parent
    reports the parent's peak.  VmHWM belongs to the current address space.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def _remainders(chowla, K, box, norm_cap: int) -> list:
    """Criterion 8's loop: the remainder at every prime power of norm <= cap.

    Functions are looked up on the package at call time so that traced
    runs reach the wrappers spans.install() bound there.
    """
    seq = chowla.build_sequence(K, box)
    model = chowla.DensityModel(K)
    out = []
    for q in chowla.prime_ideals_up_to(K, norm_cap):
        nm, alpha = q.norm, 1
        while nm <= norm_cap:
            out.append(chowla.remainder(seq, model, chowla.Ideal.prime(q, alpha)))
            alpha += 1
            nm *= q.norm
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

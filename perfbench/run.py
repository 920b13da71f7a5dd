"""Benchmark of the chowla CLI and library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (child.py), so the factor_prime
cache and the root tables start cold, as they do for a CLI user.  A run
repeats the workload for about S seconds, checks every repetition's output
against the output pinned at the seed commit (expected.json), and prints
one line per metric followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
repetitions.  With --trace 1 the run alternates untraced and traced
repetitions and reports the per-layer spans of spans.py, the tracing
overhead, and on avg-row the 1-thread / 2-thread parity_grid speedup.
Per-layer metrics of layers a workload does not reach read 0.

--toy runs the self-test sizes; --corrupt-expected alters the pinned
output so that every check fails (used by selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORK_DIR = ".perfbench"
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, children included

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRAS = {
    "ideal_arith.factor_prime_cache_hits": "count",
    "ideal_arith.factor_prime_cache_hit_ratio": "ratio",
    "factor_sieve.cells": "count",
    "factor_sieve.thread_speedup": "ratio",
    "factor_sieve.parity_grid_1t_s": "s",
    "factor_sieve.parity_grid_2t_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fn in spans.SPANS:
        name = f"{mod}.{fn}"
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update(TRACE_EXTRAS)
    return units


# ------------------------------------------------------------------ checks


def load_expected(size: str, workload: str, corrupt: bool) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        exp = json.load(fh)[size][workload]
    if corrupt:
        if "csv" in exp:
            exp["csv"] = {k: v.replace("points", "p0ints") for k, v in exp["csv"].items()}
        if "reports" in exp:
            exp["reports"] = {k: "0" * 64 for k in exp["reports"]}
        if "sha256" in exp:
            exp["sha256"] = "0" * 64
    return exp


def row_points(n: int, offset: tuple[int, int]) -> int:
    """Independent count of disc(0, 0, n) & coset & gcd(x, y) = 1, origin out."""
    import numpy as np

    r = np.arange(-n, n + 1, dtype=np.int64)
    X, Y = np.meshgrid(r, r)
    keep = (X * X + Y * Y <= n * n) & ((X - Y - (offset[0] - offset[1])) % 3 == 0)
    keep &= np.gcd(X, Y) == 1
    return int(keep.sum())


def csv_key(workload: str, seed: int) -> str:
    if workload == "avg-row":
        return str(workloads.coset_class(workloads.row_offset(seed)))
    return "all"


def check_rep(workload: str, size: str, seed: int, exp: dict, rep_dir: str,
              result: dict, points: int | None) -> list[str]:
    """Every way this repetition's output differs from the pinned output."""
    errors = []
    if result.get("exit_code") != 0:
        errors.append(f"exit code {result.get('exit_code')}")
    if workload in ("avg-table", "avg-row"):
        with open(os.path.join(rep_dir, "table.csv"), encoding="utf-8", newline="") as fh:
            got = fh.read()
        if got != exp["csv"][csv_key(workload, seed)]:
            errors.append("CSV bytes differ from the pinned output")
        lines = got.splitlines()
        for line in exp.get("c9_lines", ()):
            if line not in lines:
                errors.append(f"criterion-9 row missing: {line}")
        if points is not None:
            got_points = int(lines[1].split(",")[1]) if len(lines) > 1 else -1
            if got_points != points:
                errors.append(f"points {got_points} != independent count {points}")
    elif workload == "verify-all":
        report_dir = os.path.join(rep_dir, "reports")
        names = sorted(os.listdir(report_dir)) if os.path.isdir(report_dir) else []
        if names != sorted(exp["reports"]):
            errors.append(f"report files {names}")
        for name in names:
            with open(os.path.join(report_dir, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != exp["reports"].get(name):
                errors.append(f"report {name} differs from the pinned digest")
    else:
        with open(os.path.join(rep_dir, "remainders.txt"), "rb") as fh:
            data = fh.read()
        values = [line.split(b"/") for line in data.splitlines()]
        bound = 8 * (2 * workloads.SIZES[size][workload]["N"] + 1)
        if len(values) != exp["count"]:
            errors.append(f"{len(values)} remainders, expected {exp['count']}")
        if any(abs(int(num)) > bound * int(den) for num, den in values):
            errors.append(f"a remainder exceeds 8(2N+1) = {bound}")
        if hashlib.sha256(data).hexdigest() != exp["sha256"]:
            errors.append("remainders differ from the pinned digest")
    return errors


def check_threads(probe: dict, exp: dict, key: str) -> list[str]:
    """Both thread counts must give the pinned row's points and sum."""
    row = exp["csv"][key].splitlines()[1].split(",")
    want = {"points": int(row[1]), "sum": int(row[2])}
    return [f"parity_grid at {t} threads gave {got['points']},{got['sum']}"
            for t, got in sorted(probe.items())
            if {"points": got["points"], "sum": got["sum"]} != want]


# ------------------------------------------------------------------ running


class Run:
    """Launches and checks the repetitions of one benchmark run."""

    def __init__(self, args, root: str):
        self.args = args
        self.size = "toy" if args.toy else "full"
        self.exp = load_expected(self.size, args.workload, args.corrupt_expected)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.root = root
        os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
        self.points = None
        if args.workload == "avg-row":
            n = int(workloads.SIZES[self.size]["avg-row"]["N"])
            self.points = row_points(n, workloads.row_offset(args.seed))
        self.attempted = 0
        self.failures: list[str] = []
        self.started = time.monotonic()

    def time_left(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warm(self) -> None:
        """Compile the package's bytecode once, so no repetition pays for it."""
        subprocess.run([sys.executable, "-c", "import chowla, chowla.cli"], env=self.env,
                       cwd=self.root, check=True, timeout=self.time_left(),
                       stdout=subprocess.DEVNULL)

    def rep(self, mode: str) -> dict | None:
        """One checked repetition; None if it crashed."""
        self.attempted += 1
        rep_dir = os.path.join(self.tmp, f"rep{self.attempted}")
        os.makedirs(rep_dir)
        a = self.args
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, a.workload, self.size, str(a.seed), repr(launch),
                 rep_dir, mode],
                env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=self.time_left())
        except subprocess.TimeoutExpired:
            self.failures.append(f"rep {self.attempted}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"rep {self.attempted}: exit {proc.returncode} {tail[0]}")
            return None
        with open(os.path.join(rep_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        key = csv_key(a.workload, a.seed)
        if mode == "threads":
            errors = check_threads(result["threads"], self.exp, key)
        else:
            errors = check_rep(a.workload, self.size, a.seed, self.exp, rep_dir, result,
                               self.points)
        if errors:
            self.failures.append(f"rep {self.attempted}: " + "; ".join(errors))
        shutil.rmtree(rep_dir)
        return result

    def repeat(self, modes: tuple[str, ...]) -> dict[str, list[dict]]:
        """Cycle through modes for about --seconds, at least MIN_REPS times."""
        out: dict[str, list[dict]] = {m: [] for m in modes}
        start = time.monotonic()
        cycles = 0
        while True:
            for mode in modes:
                result = self.rep(mode)
                if result is not None:
                    out[mode].append(result)
            cycles += 1
            elapsed = time.monotonic() - start
            if self.time_left() <= 5.0 or (
                    cycles * len(modes) >= MIN_REPS
                    and elapsed * (cycles + 1) / cycles > self.args.seconds):
                return out


def per_layer(traced: list[dict], plain: list[dict], probe: dict | None) -> dict[str, float]:
    """Medians over the traced repetitions of every per-layer metric."""
    per_rep = []
    for r in traced:
        m = dict.fromkeys(per_layer_units(), 0)
        for row in r["spans"]:
            name = row["span"]
            m[f"{name}_s"] += row["total_s"]
            m[f"{name}_self_s"] += row["self_s"]
            m[f"{name}_calls"] += row["calls"]
            if row["main"]:
                m["trace.self_sum_s"] += row["self_s"]
        m.update(r["counters"])
        calls = m["ideal_arith.factor_prime_calls"]
        hits = m["ideal_arith.factor_prime_cache_hits"]
        m["ideal_arith.factor_prime_cache_hit_ratio"] = hits / calls if calls else 0
        m["trace.wall_s"] = r["wall_s"]
        m["trace.coverage"] = m["trace.self_sum_s"] / r["wall_s"]
        per_rep.append(m)
    # median_low keeps counts whole and picks values one repetition measured
    metrics = {k: statistics.median_low(m[k] for m in per_rep) for k in per_layer_units()}
    metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    if probe is not None:
        t1, t2 = probe["1"]["s"], probe["2"]["s"]
        metrics["factor_sieve.parity_grid_1t_s"] = t1
        metrics["factor_sieve.parity_grid_2t_s"] = t2
        metrics["factor_sieve.thread_speedup"] = t1 / t2
    return metrics


def machine() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"cores={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} cpu={cpu}")


def report(run: Run, reps: dict[str, list[dict]], probe: dict | None) -> bool:
    """Print the run's metric lines and closing JSON line; False if no result."""
    args = run.args
    plain = reps["plain"]
    if not plain or (args.trace and not reps["trace"]):
        print("perfbench: no repetition finished:", *run.failures, sep="\n  ", file=sys.stderr)
        return False
    if args.trace:
        metrics = per_layer(reps["trace"], plain, probe)
        units = per_layer_units()
        trace_path = os.path.join(run.root, WORK_DIR, f"trace-{args.workload}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([r["spans"] for r in reps["trace"]], fh, indent=1)
    else:
        metrics = {k: statistics.median(r[k] for r in plain) for k in E2E_UNITS}
        units = dict(E2E_UNITS)

    failed = len(run.failures)
    print(f"# workload={args.workload} seed={args.seed} size={run.size} {machine()}")
    print(f"# why: {workloads.WHY[args.workload]}")
    for msg in run.failures:
        print(f"# FAILED {msg}")
    if not args.trace:
        for name in E2E_UNITS:
            values = sorted(r[name] for r in plain)
            print(f"# {name}: {len(values)} samples, min {values[0]:.4f}, max {values[-1]:.4f}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace and args.workload in ("avg-table", "avg-row"):
        rows = run.exp["csv"][csv_key(args.workload, args.seed)].splitlines()[1:]
        points = sum(int(row.split(",")[1]) for row in rows)
        print(f"points_per_s {points / metrics['wall_s']!r} 1/s")
    print(f"failed_frac {failed / run.attempted!r} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--corrupt-expected", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chowla", "__init__.py")):
        print("perfbench: no src/chowla here; run from the root of a chowla checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run = Run(argparse.Namespace(**{**vars(args), "workload": name}), root)
        probe = None
        try:
            run.warm()
            if args.trace:
                reps = run.repeat(("plain", "trace"))
                if name == "avg-row":
                    got = run.rep("threads")
                    probe = got["threads"] if got is not None else None
            else:
                reps = run.repeat(("plain",))
        finally:
            run.close()
        if not report(run, reps, probe):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

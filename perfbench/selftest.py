"""Fast self-test of the benchmark: every workload at toy size.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that each run prints every metric BENCHMARK.json names, with its
unit, both as a line and in the closing JSON; that a corrupted pinned
output shows up as failed_frac > 0; and that the benchmark exits nonzero
without a result where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

ROOT = os.getcwd()
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = list(SPEC["command"]) + list(args)
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def toy_run(workload: str, trace: int, *extra: str):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--toy", *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, specs, lines, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        printed = {ln.split()[0]: ln.split()[2] for ln in lines
                   if not ln.startswith("#") and len(ln.split()) == 3}
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        return printed

    def test_spec_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))

    def test_end_to_end_metrics(self):
        for w in workloads.NAMES:
            with self.subTest(workload=w):
                lines, result = toy_run(w, 0)
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                printed = self.check_metrics(SPEC["end_to_end"], lines, result)
                self.assertEqual(printed["failed_frac"], "1")
                if w.startswith("avg"):
                    self.assertEqual(printed["points_per_s"], "1/s")

    def test_per_layer_metrics(self):
        for w in workloads.NAMES:
            with self.subTest(workload=w):
                lines, result = toy_run(w, 1)
                self.assertTrue(result["correct"], lines)
                self.check_metrics(SPEC["per_layer"], lines, result)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(metrics["trace.coverage"], 0.9)
                self.assertLessEqual(metrics["trace.coverage"], 1.0)
                if w == "avg-row":
                    self.assertGreater(metrics["factor_sieve.thread_speedup"], 0)

    def test_corrupted_expected_output_fails(self):
        for w in workloads.NAMES:
            with self.subTest(workload=w):
                lines, result = toy_run(w, 0, "--corrupt-expected")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                frac = next(float(ln.split()[1]) for ln in lines if ln.startswith("failed_frac "))
                self.assertGreater(frac, 0)

    def test_exits_nonzero_without_the_program(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "avg-table", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

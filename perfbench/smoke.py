"""Smoke test of the benchmark at tiny sample counts.

    python3 perfbench/smoke.py

The file name keeps it out of the default pytest collection. Every run writes
into a temporary directory outside the repository.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "30",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-smoke-"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_every_metric_is_printed_with_its_unit(self):
        declared = {0: BENCH["end_to_end"], 1: BENCH["per_layer"]}
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, metrics in declared.items():
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, workload, trace, "--n-scale", "0.002", "--out-dir", str(self.tmp))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
                    for m in metrics:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertTrue(math.isfinite(got["value"]))
                        self.assertTrue(any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                                            for line in lines[:-1]), m["name"])
                    record = json.loads((self.tmp / f"{workload}-seed5-trace{trace}.json").read_text())
                    self.assertEqual(record["machine"]["nproc"], len(os.sched_getaffinity(0)))

    def test_a_check_catches_a_wrong_expected_value(self):
        from tomonoise import cli

        n, seed = 20000, 9
        state = {"type": "coherent", "beta": [1.5, 0.0]}
        out = self.tmp / "row.json"
        argv = ["compare", "--state", json.dumps(state), "--observable", "intensity", "--eta",
                repr(workloads.ETA), "--n", str(n), "--seed", str(seed), "--out", str(out)]
        self.assertEqual(cli.main(argv), 0)
        import reference

        right = workloads._compare_check(state, reference.coherent_rho(1.5), "intensity", n, seed)
        self.assertIsNone(right(out))
        wrong_state = {"type": "coherent", "beta": [1.7, 0.0]}
        wrong = workloads._compare_check(wrong_state, reference.coherent_rho(1.7), "intensity", n, seed)
        self.assertIn("tomographic variance", wrong(out))

        estimate = self.tmp / "estimate.json"
        estimate.write_text(json.dumps({"value": 3.01, "stderr": 0.01, "n": 1000}))
        variance = (0.1, 0.01)
        self.assertIn("value", workloads._estimate_check(3.5, variance, 1000)(estimate))

    def test_tail_percentile_leaves_ten_commands_beyond_it(self):
        times = [float(t) for t in range(1, 16)]
        value, percentile, count = run.tail(times)
        self.assertEqual((value, count), (5.0, 15))
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertAlmostEqual(percentile, 100.0 / 3.0)

    def test_interquartile_mean_drops_a_quarter_from_each_end(self):
        self.assertEqual(run.interquartile_mean([2.0]), 2.0)
        self.assertEqual(run.interquartile_mean([3.0, 1.0, 100.0, 2.0]), 2.5)
        self.assertEqual(run.interquartile_mean([5.0, 1.0, 2.0, 3.0, 4.0, 100.0]), 3.5)

    def test_fails_without_the_package_source(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(self.tmp, "mc-coherent", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

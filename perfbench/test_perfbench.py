"""Tests of the benchmark itself (about a minute on 2 CPUs).

    python3 -m unittest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_count_the_same_calls(self):
        runs = [
            result(bench("--workload", "calculus", "--seed", "3", "--seconds", "1",
                         "--trace", "1"))
            for _ in range(2)
        ]
        names = [m["name"] for m in SPEC["per_layer"]]
        for run in runs:
            self.assertEqual(sorted(run["metrics"]), sorted(names))
        counts = [
            {k: v["value"] for k, v in run["metrics"].items() if v["unit"] == "count"}
            for run in runs
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["descriptors.member.calls.WNbhd"], 0)
        self.assertGreater(counts[0]["pbij.mul.calls"], 0)


class UntracedMetrics(unittest.TestCase):
    def test_every_metric_is_printed_by_name_with_its_unit(self):
        named = {
            "calculus": ["verdict_s", "setup_s", "peak_rss_mb", "failed_ratio",
                         "calculus_calls_per_s"],
            "suites-b6-jobs2": ["verdict_s", "setup_s", "peak_rss_mb", "failed_ratio",
                                "verify_s.basis", "verify_s.much-wan",
                                "verify_s.continuity"],
        }
        for workload, metrics in named.items():
            done = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                         "--trace", "0")
            out = result(done)
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, e2e)
            self.assertTrue(all(v["value"] > 0 for v in out["metrics"].values()))
            lines = done.stdout.splitlines()
            for name in metrics:
                self.assertTrue(
                    any(line.split()[:1] == [name] and len(line.split()) >= 3
                        for line in lines),
                    f"{workload} printed no line for {name}")


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, tmp / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "calculus", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), runs all four workloads at 5% of
their row counts for one second each, traced and untraced, and checks that
every metric BENCHMARK.json names is printed with its unit, that nothing
fails, and that a corrupted result fingerprint and a simulated hang are
each counted as a failure.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()
        cls.spec = load_spec()

    def bench(self, workload, trace, *extra):
        args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.05"]
        code, stdout = run.run_binary(self.out, args + list(extra), timeout=120)
        self.assertEqual(code, 0, stdout)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        stamp = json.loads(lines[-2 - len(result["metrics"])])["stamp"]
        for key in ("nproc", "compiler", "build_type", "revision", "seed",
                    "rows", "attributes", "threads"):
            self.assertIn(key, stamp)
        return result

    def assert_metrics(self, result, expected):
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric_without_failures(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result = self.bench(w["name"], 0)
                self.assert_metrics(result, self.spec["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                result = self.bench(w["name"], 1)
                self.assert_metrics(result, self.spec["per_layer"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["fail_frac"]["value"], 0)

    def test_corrupted_fingerprint_is_a_failure(self):
        result = self.bench("flight-aoc", 0, "--inject-corrupt", "1")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assert_metrics(result, self.spec["end_to_end"])

    def test_simulated_hang_is_a_failure(self):
        for workload in ("flight-aoc", "serve-mix"):
            with self.subTest(workload=workload):
                result = self.bench(workload, 0, "--inject-hang", "1",
                                    "--watchdog", "1")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assert_metrics(result, self.spec["end_to_end"])

    def test_traced_hang_reports_fail_frac(self):
        result = self.bench("ncvoter-fd-budget", 1, "--inject-hang", "2",
                            "--watchdog", "1")
        self.assertEqual(result["failed"], 1)
        self.assertAlmostEqual(result["metrics"]["fail_frac"]["value"],
                               1 / result["attempted"])


if __name__ == "__main__":
    unittest.main()

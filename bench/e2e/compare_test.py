#!/usr/bin/env python3
"""Verdict tests for compare.py on small synthetic result files.

    python3 bench/e2e/compare_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [],
}
SEEDS = range(100, 110)


def run(seed, latency, failed=0, digest="0x1", trace=0):
    return {"workload": "w", "seed": seed, "seconds": 1, "trace": trace,
            "pool_threads": 1, "correct": True, "attempted": 100,
            "failed": failed,
            "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"}},
            "diagnostics": {}, "replies_digest": digest}


class CompareTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, runs):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(json.dumps({"env": {"nproc": 1}}) + "\n")
            for r in runs:
                f.write(json.dumps(r) + "\n")
        return path

    def compare(self, parent_runs, change_runs):
        """(exit status, {metric: verdict}, digest changes)."""
        out = os.path.join(self.dir.name, "out.json")
        with contextlib.redirect_stdout(io.StringIO()):
            status = compare.compare(self.write("p.jsonl", parent_runs),
                                     self.write("c.jsonl", change_runs),
                                     BENCH, out)
        with open(out) as f:
            doc = json.load(f)
        return (status, {r["metric"]: r["verdict"] for r in doc["rows"]},
                doc["digest_changes"])

    def test_same_runs_are_within_bound(self):
        runs = [run(s, 10.0 + 0.01 * (s % 3)) for s in SEEDS]
        status, verdicts, digests = self.compare(runs, runs)
        self.assertEqual(status, 0)
        self.assertEqual(verdicts["latency_p50_ms"], "within bound")
        self.assertEqual(verdicts["error_frac"], "no increase")
        self.assertEqual(digests, [])

    def test_slower_median_is_a_regression(self):
        parent = [run(s, 10.0 + 0.01 * (s % 3)) for s in SEEDS]
        change = [run(s, 12.0 + 0.01 * (s % 3)) for s in SEEDS]
        status, verdicts, _ = self.compare(parent, change)
        self.assertEqual(status, 1)
        self.assertEqual(verdicts["latency_p50_ms"], "REGRESSION")

    def test_paired_win_is_a_gain(self):
        parent = [run(s, 10.0 + 0.01 * (s % 3)) for s in SEEDS]
        change = [run(s, 9.0 + 0.01 * (s % 3)) for s in SEEDS]
        status, verdicts, _ = self.compare(parent, change)
        self.assertEqual(status, 0)
        self.assertEqual(verdicts["latency_p50_ms"], "GAIN")

    def test_more_failures_are_a_regression_and_refuse_a_gain(self):
        parent = [run(s, 10.0 + 0.01 * (s % 3)) for s in SEEDS]
        change = [run(s, 9.0 + 0.01 * (s % 3), failed=1 if s == 100 else 0)
                  for s in SEEDS]
        status, verdicts, _ = self.compare(parent, change)
        self.assertEqual(status, 1)
        self.assertEqual(verdicts["error_frac"], "REGRESSION")
        self.assertNotEqual(verdicts["latency_p50_ms"], "GAIN")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [run(s, 10.0 + (s % 4)) for s in SEEDS]
        change = [run(s, 10.5 + (s % 4)) for s in SEEDS]
        _, verdicts, _ = self.compare(parent, change)
        self.assertEqual(verdicts["latency_p50_ms"], "unresolved")

    def test_digest_change_is_flagged(self):
        parent = [run(s, 10.0) for s in SEEDS]
        change = [run(s, 10.0, digest="0x2" if s == 105 else "0x1")
                  for s in SEEDS]
        status, _, digests = self.compare(parent, change)
        self.assertEqual(status, 1)
        self.assertEqual(len(digests), 1)


if __name__ == "__main__":
    unittest.main()

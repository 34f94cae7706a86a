#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py        # from the repository root

* rcs_perfbench --self-test: the verification gate rejects perturbed results,
  the critical-path buckets sum to the simulated makespan, the self-time
  arithmetic holds;
* every workload, traced and untraced, prints exactly the metrics
  BENCHMARK.json names, with the same units, and verifies every solve;
* bad arguments exit nonzero without a result line;
* spread.py's steal-share fit on hand-written samples.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
sys.path.insert(0, HERE)
import spread  # noqa: E402


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), cwd=ROOT, capture_output=True, text=True)


class Benchmark(unittest.TestCase):
    def test_self_test(self):
        out = run("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("self-test passed", out.stdout)

    def test_metrics_match_spec(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    out = run("--workload", w["name"], "--seed", "5",
                              "--seconds", "2", "--trace", trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_bad_arguments(self):
        for args in (["--workload", "nope"], ["--workload", "lu-mid",
                                              "--trace", "2"]):
            with self.subTest(args=args):
                out = run(*args)
                self.assertNotEqual(out.returncode, 0)
                self.assertNotIn('"correct"', out.stdout)

    def test_steal_share(self):
        # Wall = 0.25 + 0.4 x steal in 20 ms steps, plus one solve that lost
        # no time to its steal: the median pair slope is 0.4.
        v = [(0.25 + 0.4 * 0.02 * i, 0.02 * i) for i in range(9)]
        self.assertAlmostEqual(spread.steal_share(v + [(0.25, 0.3)]), 0.4)
        self.assertEqual(spread.steal_share([(0.3, 0), (0.2, 0), (0.25, 0)]),
                         0.0)
        steep = [(0.2 + 2.0 * 0.1 * i, 0.1 * i) for i in range(5)]
        self.assertEqual(spread.steal_share(steep), 1.0)  # clamped
        self.assertEqual(spread.steal_share(steep[:4]), 0.0)  # < 10 pairs
        # 0.9 s solves with +-0.1 s of noise and 10-40 ms of steal: no pair's
        # steal differs by 5% of a solve, so the noise gives no share.
        quiet = [(0.9 + 0.05 * ((i * 7) % 5 - 2), 0.01 * (1 + i % 4))
                 for i in range(12)]
        self.assertEqual(spread.steal_share(quiet), 0.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for the benchmark itself, on tiny shapes.

    python3 perfbench/test_perfbench.py

Each workload must print every end-to-end metric named in BENCHMARK.json
(untraced) and every per-layer metric (traced), with the declared units; a
deliberately wrong sketch must trip the output check and fail the run.
"""

import glob
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
DETERMINISTIC = ("words", "wire_bytes", "coord_inbound_bytes", "coverr_frac")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = json.loads(lines[-2])["record"] if len(lines) > 1 else None
    return proc, result, record


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result, record = run(w)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                for key in ("seed", "ds_threads", "simd", "nproc", "commit"):
                    self.assertIn(key, record)
                self.assertEqual(record["seed"], 7)
                self.assertLessEqual(record["ds_threads"], record["nproc"])

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result, _ = run(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])

    def test_wrong_sketch_trips_the_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result, _ = run(w, extra=["--corrupt-sketch"])
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn(f"{w}: check failed", proc.stderr)

    def test_counts_repeat_for_a_seed_and_leave_no_files(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = run(w, seed=3)[1]["metrics"]
                second = run(w, seed=3)[1]["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)
        build_dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.assertEqual(glob.glob(os.path.join(build_dir, "tmp-*")), [])


if __name__ == "__main__":
    unittest.main()

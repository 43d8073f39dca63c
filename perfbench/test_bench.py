#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload at --tiny size through run.py (building first if
needed) and checks that the result line is well formed and carries every
metric BENCHMARK.json declares, with its unit; that a perturbing estimator
wrapper trips the digest gate; that refused service requests fail the
run; and that the benchmark refuses to run without the repository sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class TinyWorkloads(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertTrue(any(line.startswith("provenance: {") for line in lines))
        return lines, result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = self.check_result(run(workload, 0), SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    # Printed by name with unit in the report, never zero.
                    self.assertTrue(any(line.split()[:1] == [m["name"]] and
                                        f" {m['unit']}" in line for line in lines),
                                    m["name"])
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = self.check_result(run(workload, 1), SPEC["per_layer"])
                metrics = result["metrics"]
                self.assertIn("bench.trace_overhead", metrics)
                if workload.startswith("sim-"):
                    self.assertGreater(metrics["sim.events"]["value"], 0)
                    self.assertGreater(metrics["sched.pick_calls"]["value"], 0)
                else:
                    self.assertGreater(metrics["svc.batch_size_mean"]["value"], 0)
                    self.assertEqual(metrics["net.protocol_errors"]["value"], 0)

    def test_perturbed_estimator_trips_digest_gate(self):
        proc = run("sim-stream-fcfs", 1, "--perturb")
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertIs(result["correct"], False)
        self.assertIn("sim digest differs between the untraced and the traced run",
                      proc.stdout)

    def test_refused_requests_fail_the_run(self):
        # A 4-slot admission queue refuses writes under the closed loop.
        proc = run("svc-net-mixed", 0, "--queue-capacity", "4")
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertIs(result["correct"], False)
        self.assertGreater(result["failed"], 0)
        self.assertIn("svc: requests refused", proc.stdout)


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        # Only BENCHMARK.json and perfbench/: no src/ to build from.
        iso = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=iso, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

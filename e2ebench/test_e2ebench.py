#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale.

Run from anywhere: python3 e2ebench/test_e2ebench.py
Each test drives the real command (run.py, which builds on first use) with
--scale tiny, so a full pass takes well under a minute once built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-replay", "allpairs-sweep", "churn-topk")


def run(workload, seed, trace=0):
    """Runs one tiny workload; returns (stdout lines, result object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def tagged(lines, tag):
    for line in lines:
        obj = json.loads(line)
        if tag in obj:
            return obj[tag]
    raise AssertionError(f"no {tag} line")


class E2eBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {w: run(w, 1) for w in WORKLOADS}

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_every_end_to_end_metric_with_its_unit(self):
        for workload, (_, result) in self.runs.items():
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreater(result["attempted"], 0, workload)
            metrics = result["metrics"]
            self.assertEqual(set(metrics),
                             {m["name"] for m in self.spec["end_to_end"]})
            for m in self.spec["end_to_end"]:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertGreater(metrics[m["name"]]["value"], 0,
                                   f"{workload} {m['name']}")
            self.assertEqual(metrics["allpairs_recall"]["value"], 1.0)

    def test_every_per_layer_metric_with_its_unit(self):
        for workload in WORKLOADS:
            _, result = run(workload, 1, trace=1)
            metrics = result["metrics"]
            self.assertEqual(set(metrics),
                             {m["name"] for m in self.spec["per_layer"]})
            for m in self.spec["per_layer"]:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertGreater(
                metrics["sharded_vos_sketch.update_batch_calls"]["value"], 0)
            self.assertLess(metrics["trace.unattributed_share"]["value"], 0.5)

    def test_same_seed_same_stream_and_accuracy(self):
        for workload, (lines, result) in self.runs.items():
            again_lines, again = run(workload, 1)
            self.assertEqual(tagged(lines, "stream_digest"),
                             tagged(again_lines, "stream_digest"), workload)
            for name in ("aape", "armse", "allpairs_recall"):
                self.assertEqual(result["metrics"][name]["value"],
                                 again["metrics"][name]["value"],
                                 f"{workload} {name}")

    def test_other_seed_other_stream(self):
        for workload, (lines, _) in self.runs.items():
            other_lines, _ = run(workload, 2)
            self.assertNotEqual(tagged(lines, "stream_digest")["hash"],
                                tagged(other_lines, "stream_digest")["hash"],
                                workload)

    def test_run_context_is_stamped(self):
        for workload, (lines, _) in self.runs.items():
            context = tagged(lines, "context")
            for key in ("nproc", "kernels", "build_type", "native_arch",
                        "seed", "workload", "shards", "lanes", "workers"):
                self.assertIn(key, context, workload)
            self.assertEqual(context["workload"], workload)


if __name__ == "__main__":
    unittest.main()

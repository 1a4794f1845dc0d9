#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 e2ebench/test_e2ebench.py

Checks that the names in BENCHMARK.json are well formed, and that the
driver's output covers exactly what BENCHMARK.json declares: every
end-to-end metric untraced, every per-layer metric traced. The two run
tests execute the small workload for a few seconds (building the driver
first if needed, under $CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "small",
         "--seed", "7", "--seconds", "4", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


class DeclarationTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in bench[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is reused")

    def test_bounds_and_setup_metric(self):
        bench = load_benchmark()
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name, bound in bounds.items():
            self.assertGreater(bound, 0, name)
            self.assertLessEqual(bound, 0.25, name)
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_are_configured(self):
        bench = load_benchmark()
        with open(os.path.join(HERE, "workloads.json")) as f:
            configured = set(json.load(f)["workloads"])
        self.assertEqual({w["name"] for w in bench["workloads"]}, configured)

    def test_stage_shares_add_up_to_one(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)["workloads"]
        for name, params in workloads.items():
            shares = [v for k, v in params.items() if k.startswith("share_")]
            self.assertEqual(len(shares), 4, name)
            self.assertAlmostEqual(sum(shares), 1.0, places=9, msg=name)


class OutputTest(unittest.TestCase):
    def check_result(self, trace, group):
        code, lines = run_benchmark(trace)
        self.assertEqual(code, 0, "benchmark run failed")
        env = json.loads(lines[-2])["env"]
        for key in ("nproc", "compiler", "build_type", "source_sha256"):
            self.assertIn(key, env)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in load_benchmark()[group]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_untraced_run_emits_every_end_to_end_metric(self):
        result = self.check_result(0, "end_to_end")
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check_result(1, "per_layer")


if __name__ == "__main__":
    unittest.main()

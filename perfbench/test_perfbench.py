#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

- BENCHMARK.json keeps to the benchmark file format.
- --smoke runs every workload, traced and untraced, at a tiny trace
  scale; every metric BENCHMARK.json names comes back with its unit, all
  checks pass, and tracing changes no output.
- Without the library's sources the benchmark fails fast and prints no
  result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkFileTest(unittest.TestCase):
    def test_format(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            names.append(workload["name"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        done = subprocess.run([sys.executable,
                               os.path.join(HERE, "run.py"), "--smoke"],
                              cwd=ROOT, timeout=1800)
        self.assertEqual(done.returncode, 0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        build = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        bare = os.path.join(build, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "profile-gcc", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself (not of PacketBench).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py (building on first use) with short
runs and checks:
  - every printed name and unit matches BENCHMARK.json and the name
    charset, with and without tracing, on every workload;
  - changing the seed changes the inputs but not the set of metrics;
  - the correctness gate rejects a deliberately wrong expected total;
  - without the program's sources the command fails without a result.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "1"


def run(workload, seed=1, trace=0, extra=(), root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    """The last stdout line, parsed, or None."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def digest(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("inputs "):
            return line.split("digest=")[1]
    return None


class BenchmarkContract(unittest.TestCase):
    def check_result(self, proc, spec_key):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertIsNotNone(res, proc.stdout[-2000:])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in res["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIsInstance(metric["value"], (int, float))
        return res

    def test_names_match_spec(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                res = self.check_result(run(workload), "end_to_end")
                for m in ("pkts_per_s", "setup_s"):
                    self.assertGreater(res["metrics"][m]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                proc = run(workload, trace=1)
                self.check_result(proc, "per_layer")
                self.assertIn("stage-sum check: ok", proc.stdout)

    def test_spec_names_are_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]] + [w["name"]
                                        for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_seed_changes_inputs_not_metrics(self):
        for workload in ("tables", "svc_nat"):
            with self.subTest(workload=workload):
                a, b = run(workload, seed=1), run(workload, seed=2)
                self.assertEqual(a.returncode, 0, a.stderr[-2000:])
                self.assertEqual(b.returncode, 0, b.stderr[-2000:])
                self.assertNotEqual(digest(a), digest(b))
                self.assertEqual(digest(a), digest(run(workload, seed=1)))
                self.assertEqual(set(result(a)["metrics"]),
                                 set(result(b)["metrics"]))

    def test_gate_rejects_wrong_total(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                proc = run(workload, extra=("--expect-bias", "1"))
                self.assertEqual(proc.returncode, 1)
                self.assertIs(result(proc)["correct"], False)
                self.assertIn("mismatch", proc.stderr)

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        try:
            proc = run("tables", root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result(proc))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

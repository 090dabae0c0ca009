#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py      # from the root of a checkout

- every workload, untraced and traced, emits exactly the metrics
  BENCHMARK.json names and verifies every restore;
- with one client and a fixed seed, the count-derived metrics repeat
  exactly across two runs;
- an injected server failure is counted, turns `correct` false and makes
  the command exit non-zero;
- without the sources next to it, the command fails without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=7, clients=2, env=None, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--clients", str(clients),
         "--scale", "tiny"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


class MetricNames(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, proc = run(workload, trace)
                self.assertEqual(code, 0, proc.stderr[-2000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = result["metrics"]
                self.assertEqual(set(got), set(want))
                for name, m in got.items():
                    self.assertEqual(m["unit"], want[name], name)
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if key == "end_to_end":
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class CountsRepeat(unittest.TestCase):
    COUNTS = {0: ("stored_bytes_ratio", "restore_loads_per_gb",
                  "sim_backup_mb_s", "sim_restore_mb_s"),
              1: ("chunking.chunks", "index.lookups")}

    def test_one_client_fixed_seed(self):
        for workload in WORKLOADS:
            for trace, names in self.COUNTS.items():
                with self.subTest(workload=workload, trace=trace):
                    first = run(workload, trace, seed=5, clients=1)[1]
                    second = run(workload, trace, seed=5, clients=1)[1]
                    for name in names:
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"], name)


class Failures(unittest.TestCase):
    def test_injected_server_failure_is_counted(self):
        # One-shot: the first container seal of a backup throws inside the
        # daemon, which answers that backup with ERROR.
        env = dict(os.environ, DEFRAG_FAILPOINTS="store.stream_seal:throw")
        code, result, proc = run("first-write", 0, env=env)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("FAILED", proc.stderr)

    def test_fails_without_sources(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
        bare = build.resolve() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        try:
            code, result, _ = run("first-write", 0, env=env, cwd=bare,
                                  script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()

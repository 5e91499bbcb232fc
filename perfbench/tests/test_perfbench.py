#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py with short budgets (it builds on first use) and checks
that simulated-clock output is deterministic, that every metric named in
BENCHMARK.json is printed with its unit, and that the output verifier
counts a deliberately wrong expected pattern as failures.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")

# Simulated-clock end-to-end metrics: exact for a given seed.
SIM_METRICS = [
    "sim_cycles_per_op.native", "sim_cycles_per_op.ukernel", "sim_cycles_per_op.vmm",
    "crossings_per_op.ukernel", "crossings_per_op.vmm", "dom0_cpu_share",
]


def run(workload, seed, trace, seconds=1, extra=(), cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, result


def digests(lines):
    return [line.split()[3] for line in lines if line.startswith("pass ") and " digest " in line]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)

    def test_same_seed_gives_identical_sim_metrics_and_digest(self):
        for workload in ("ctl", "io"):
            proc_a, lines_a, a = run(workload, 5, 0)
            proc_b, lines_b, b = run(workload, 5, 0)
            self.assertEqual(proc_a.returncode, 0, proc_a.stderr)
            self.assertEqual(proc_b.returncode, 0, proc_b.stderr)
            for name in SIM_METRICS:
                self.assertEqual(a["metrics"][name], b["metrics"][name], (workload, name))
            self.assertTrue(digests(lines_a))
            self.assertEqual(digests(lines_a), digests(lines_b))
        # A different seed reorders the ops, so the digest changes.
        _, lines_c, _ = run("io", 6, 0)
        self.assertNotEqual(digests(lines_c), digests(lines_a))

    def test_every_named_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                proc, _, result = run(w["name"], 3, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, wanted, (w["name"], key))
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_traced_run_shares_sum_to_one(self):
        _, _, result = run("io", 2, 1)
        metrics = result["metrics"]
        for prefix in ("ukernel.share.", "vmm.share."):
            total = sum(m["value"] for n, m in metrics.items() if n.startswith(prefix))
            self.assertAlmostEqual(total, 1.0, places=9, msg=prefix)

    def test_verifier_counts_a_wrong_expected_pattern(self):
        proc, _, result = run("io", 4, 0, extra=["--corrupt-expected"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        # Every io round holds 160 ops, of which 16 file reads and 32
        # datagram receives are verified against the expected pattern: all
        # of those, and nothing else, must fail.
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"] * 160, result["attempted"] * 48)

    def test_fails_without_the_program_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            bare = tempfile.mkdtemp(dir=scratch)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ctl", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

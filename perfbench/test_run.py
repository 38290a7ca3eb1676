#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_run.py
"""

import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        os.makedirs(os.path.join(bench.WORK, "logs"), exist_ok=True)
        cls.catalog = bench.read_catalog()

    def test_tampered_execute_reference_is_caught(self):
        seed = 5
        refs = bench.reference_digests(
            [(k["name"], k["default_bindings"], seed) for k in self.catalog["kernels"]])
        tampered = dict(refs)
        key = bench.ref_key("trisolve", {"N": 24}, seed)
        tampered[key] = "0" * 32
        run = bench.run_workload("cold-compile", seed, 0, self.catalog, tampered)
        # Each walk executes trisolve once per variant and backend, and
        # nothing else may be flagged.
        walks = len(run.steal)  # one entry per walk, set aside or not
        self.assertEqual(run.failed, 4 * walks, run.messages)
        self.assertTrue(all("trisolve" in m and "interpreter" in m for m in run.messages))

    def test_tampered_batch_reference_is_caught(self):
        refs = bench.reference_digests(bench.warm_ref_triples())
        tampered = {k: "f" * 32 for k in refs}
        run = bench.run_workload("batch-fanout", 3, 1, self.catalog, tampered)
        batches = run.loop_requests
        self.assertGreater(batches, 0)
        self.assertEqual(run.failed, bench.BATCH_ITEMS * batches, run.messages[:3])


class HostContention(unittest.TestCase):
    def test_clean_measurements_are_used_when_there_are_enough(self):
        measured = [(0.01, 2.0, "a"), (0.20, 2.0, "b"), (0.00, 2.0, "c")]
        self.assertEqual(bench.least_stolen(measured, 4.0), (["a", "c"], 1, False))

    def test_least_stolen_fill_in_when_too_few_are_clean(self):
        measured = [(0.30, 2.0, "a"), (0.01, 2.0, "b"), (0.10, 2.0, "c")]
        self.assertEqual(bench.least_stolen(measured, 4.0), (["b", "c"], 1, True))


class BareDirectory(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        d = os.path.join(bench.WORK, "tmp", "bare")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        shutil.copytree(os.path.join(bench.ROOT, "perfbench"), os.path.join(d, "perfbench"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), d)
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-compile",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
        shutil.rmtree(d, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, b"")


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark (not part of the library's test suite).

    python3 bench/selftest.py

Checks that a tiny run of every workload emits every metric named in
BENCHMARK.json, that traced self times add up to the traced wall time, that
a corrupted reference value and a raising job are both counted as failures
without stopping the run, and that the benchmark refuses to run without the
library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = 6  # jobs per tiny deck


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in workloads.WORKLOADS:
            for trace, expected in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    result, record = run.run(workload, 1, 1, trace, jobs_limit=TINY)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertEqual(result["failed"], 0, record["failures"])
                    if trace:
                        # traced self times add up to the traced wall time
                        self.assertLessEqual(record["self_time_gap_frac"], run.SELF_TIME_SLACK)
                        self.assertEqual(record["absent"], [])


class FailureAccounting(unittest.TestCase):
    def test_corrupted_reference_is_a_failure(self):
        workload, seed = "kernels", 1
        refs = workloads.load_refs(workload)
        slot, rep = workloads.deck_order(workload, seed)[0][0]
        key = f"{slot}:{rep}"
        self.assertIsInstance(refs[key], list)
        refs[key] = [refs[key][0] * (1.0 + 1e-4)] + refs[key][1:]
        result, record = run.run(workload, seed, 1, 0, jobs_limit=2, refs=refs)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 2 * record["passes"])
        self.assertEqual(result["failed"], record["passes"])  # once per pass
        self.assertIn(key, " ".join(record["failures"]))

    def test_raising_job_is_counted_and_the_pass_goes_on(self):
        # find_zeros raises a bare ValueError (round of NaN in the winding
        # count) on the tall bump at t = 31 in Box(2.45, 1.0)
        lib = workloads.import_library()
        cells = (0.8,) * 100 + (0.0,) * 3000
        tall = lib.SampledPotential(h=0.01, cells=cells, T=31.0)
        known = workloads.Job("known", "find_zeros",
                              lambda: lib.find_zeros(tall, 31.0, lib.Box(s=2.45, half_width=1.0)),
                              lambda r: r, lambda d: [len(d)])
        fine = workloads.Job("fine", "find_zeros",
                             lambda: lib.find_zeros(tall, 31.0, lib.Box(s=0.0, half_width=0.05)),
                             lambda r: r, lambda d: [len(d)])
        _, records = run.run_pass([known, fine, known])
        statuses = run.check_pass([known, fine, known], records, {})
        self.assertEqual([s[0] for s in statuses], ["error", "ok", "error"])
        self.assertIn(": ValueError", statuses[0][1])


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_library_sources(self):
        bare = os.path.join(workloads.ROOT, ".bench_work", f"selftest-bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(workloads.BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "spectrum", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

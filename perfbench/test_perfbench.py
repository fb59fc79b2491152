#!/usr/bin/env python3
"""Self-test of the avqdb benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload twice untraced and twice traced at a small size and
checks that
  * every run is correct and prints every metric BENCHMARK.json names,
    with its unit;
  * the counts that depend only on the seed repeat exactly: space_ratio,
    and in the traced run db.N_blocks, index.I_blocks,
    avq.tuples_decoded_per_row, db.rows_examined_per_row and
    wal.replay_records;
  * without the engine sources next to it, run.py fails without printing
    a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ["--tuples", "20000", "--seconds", "2"]
DETERMINISTIC = {
    0: ["space_ratio"],
    1: ["db.N_blocks", "index.I_blocks", "avq.tuples_decoded_per_row",
        "db.rows_examined_per_row", "wal.replay_records"],
}


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)] + SMALL,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload):
        for trace in (0, 1):
            results = []
            for _ in range(2):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                wanted = self.spec["per_layer" if trace else "end_to_end"]
                for metric in wanted:
                    got = result["metrics"].get(metric["name"])
                    self.assertIsNotNone(got, metric["name"])
                    self.assertEqual(got["unit"], metric["unit"])
                results.append(result)
            for name in DETERMINISTIC[trace]:
                self.assertEqual(results[0]["metrics"][name]["value"],
                                 results[1]["metrics"][name]["value"],
                                 "%s on %s" % (name, workload))

    def test_lookup(self):
        self.check_workload("lookup")

    def test_scan(self):
        self.check_workload("scan")

    def test_mixed_rw(self):
        self.check_workload("mixed_rw")

    def test_fails_without_engine_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("lookup", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark's outcome checker.

Run from the repository root (takes about a minute; builds perfbench_bin
on first use):

  python3 perfbench/test_run.py

Most tests run perfbench/run.py against a copy of references.json with one
recorded value changed and check that the command exits nonzero and reports
the affected units as failed.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"


def run_bench(workload, references, cwd=ROOT, script=BENCH_DIR / "run.py"):
    args = [sys.executable, str(script), "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", "0"]
    if references is not None:
        args += ["--references", str(references)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


def corrupted(name, edit):
    """A copy of references.json with `edit` applied to it."""
    references = json.loads((BENCH_DIR / "references.json").read_text())
    edit(references)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"{name}.json"
    path.write_text(json.dumps(references))
    return path


class CheckerTest(unittest.TestCase):
    def assert_fails(self, workload, edit, expected_ratio):
        done = run_bench(workload, corrupted(workload, edit))
        self.assertNotEqual(done.returncode, 0, done.stdout[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] / result["attempted"], expected_ratio)
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1 - expected_ratio)
        self.assertRegex(done.stdout, rf"fail_ratio +{expected_ratio:g} ")

    def test_fleet_mismatch_fails_every_node(self):
        def edit(refs):
            refs["fleet_long"]["1"][0]["events_total"] += 1
        self.assert_fails("fleet_long", edit, 1)

    def test_torture_mismatch_fails_every_seed(self):
        def edit(refs):
            refs["torture_smp"]["1"][2]["ops_executed"] -= 1
        self.assert_fails("torture_smp", edit, 1)

    def test_csd_set_mismatch_fails_every_set(self):
        def edit(refs):
            refs["csd_deploy"]["1"][1]["sets"][5]["utilization"] += 1e-9
        self.assert_fails("csd_deploy", edit, 1)

    def test_recorded_references_pass(self):
        done = run_bench("csd_deploy", None)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])
        self.assertTrue(json.loads(done.stdout.strip().splitlines()[-1])["correct"])

    def test_refuses_to_run_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench("fleet_long", None, cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class DeterminismCheckTest(unittest.TestCase):
    @staticmethod
    def torture_trace(ops):
        counts = {name: 7 for name, *_ in run.PER_LAYER if name.startswith("core.")}
        counts.update({"fuzz.ops_executed": ops, "fuzz.trace_retained": 5,
                       "fuzz.trace_dropped": 0})
        span = {"name": "fuzz.RunTorture", "parent": -1, "unit": 0, "start_ns": 0,
                "end_ns": 10, "cpu_ns": 9}
        return {"spans": [span], "counts": counts}

    def test_differing_exact_count_is_reported(self):
        same = [run.layer_values("torture_smp", self.torture_trace(2000)) for _ in range(2)]
        self.assertEqual(run.exact_mismatches(same), [])
        differ = same[:1] + [run.layer_values("torture_smp", self.torture_trace(1999))]
        self.assertEqual(run.exact_mismatches(differ), ["fuzz.ops_executed"])


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark's input generator and harness.

    python3 perfbench/selftest.py

Checks that one seed gives byte-identical inputs every time, that the
frame-changed inputs of two seeds match the known-answer table, that
tracing leaves every output byte-identical and restores the program,
that a missing function is reported as absent, and that the runner
fails without a result where the program's sources are missing. Takes
about a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest

from run import HERE, WORK, Results, load_json, load_program, run_round
from tracer import Tracer
from workloads import WORKLOADS

ANSWERS = load_json("known_answers.json")


def _inputs(name, seed, rounds=2):
    """The argv lists and file contents of the first rounds of a workload."""
    package = load_program()
    workdir = WORK / "selftest" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](package, ANSWERS, workdir, seed)
    argvs = [[c.argv for c in workload.round(i)] for i in range(rounds)]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = _inputs(name, 7)
                self.assertEqual(first, _inputs(name, 7))
                self.assertNotEqual(first[1], _inputs(name, 8)[1])

    def test_two_seeds_match_known_answers(self):
        for name, cls in WORKLOADS.items():
            for seed in (3, 4):
                with self.subTest(workload=name, seed=seed):
                    package = load_program()
                    workdir = WORK / "selftest" / name
                    shutil.rmtree(workdir, ignore_errors=True)
                    workdir.mkdir(parents=True)
                    workload = cls(package, ANSWERS, workdir, seed)
                    results = Results(None)
                    run_round(package, 0, workload.round(0), results)
                    self.assertGreater(results.attempted, 0)
                    self.assertEqual(results.failures, [])


class KnownDefectsTest(unittest.TestCase):
    def test_defect_calls_come_after_the_default_mix(self):
        package = load_program()
        workdir = WORK / "selftest" / "files"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        plain = [c.argv for c in WORKLOADS["files"](package, ANSWERS, workdir, 6).round(0)]
        workload = WORKLOADS["files"](package, ANSWERS, workdir, 6, known_defects=True)
        calls = workload.round(0)
        self.assertEqual([c.argv for c in calls[: len(plain)]], plain)
        extra = calls[len(plain):]
        self.assertEqual(len(extra), 6)  # tangent-lie-1..4 and both poisson structures
        results = Results(None)
        run_round(package, 0, extra, results)
        # only the calls for missing requirements may fail, by their exit code
        self.assertTrue(all("(requirements missing): exit" in f for f in results.failures))


class TracerTest(unittest.TestCase):
    def test_traced_outputs_identical_and_originals_restored(self):
        for name in ("files", "fm-matrix"):
            with self.subTest(workload=name):
                package = load_program()
                original = package.checkers.find_witness
                workdir = WORK / "selftest" / name
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                workload = WORKLOADS[name](package, ANSWERS, workdir, 5)
                calls = workload.round(0)[:12]
                tracer = Tracer()
                tracer.install()
                try:
                    self.assertIsNot(package.checkers.find_witness, original)
                    results = Results(None)
                    run_round(package, 0, calls, results, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(results.failures, [])
                self.assertIs(package.checkers.find_witness, original)
                self.assertIs(package.funmodel.find_witness, original)
                self.assertEqual(tracer.absent, [])
                self.assertGreater(len(tracer.spans[0]), 0)

    def test_missing_function_is_absent(self):
        package = load_program()
        for ns in (package, package.kvfin, package.cli):
            del ns.exactness_witness
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["kvfin.exactness_witness"])


class RunnerTest(unittest.TestCase):
    def test_fails_without_program(self):
        # a directory holding only the benchmark's own files
        bare = WORK / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "files",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark's outcome checker, metric names and
input generator. Run from the repository root:

    python3 -m unittest discover -s bench -t bench
"""

import json
import os
import tempfile
import unittest

from unittest import mock

import layers
import outcome
import specgen
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPORT = json.dumps({
    "schema": 1,
    "checks": [{"name": "lr", "status": "fail"},
               {"name": "sc", "status": "pass"}],
    "wall_time_s": 0.25,
}, indent=2, sort_keys=True)

CHECK = workloads.check("leak", "unwinding", "leak.ifs", exit=1,
                        failing=("lr",), source="test")
REPLAY = workloads.replay("leak")


class OutcomeTest(unittest.TestCase):
    def test_clean_check_and_replay_are_right(self):
        clean = outcome.ChildResult(1, REPORT, "")
        self.assertEqual(outcome.problems(CHECK, clean), [])
        again = outcome.ChildResult(1, REPORT.replace("0.25", "0.31"), "")
        self.assertEqual(outcome.problems(CHECK, again, REPORT), [])
        replayed = outcome.ChildResult(0, "reproduced lr: ...\n", "")
        self.assertEqual(outcome.problems(REPLAY, replayed), [])

    def test_wrong_exit_code_is_wrong(self):
        result = outcome.ChildResult(0, REPORT, "")
        self.assertTrue(outcome.problems(CHECK, result))

    def test_budget_exit_is_wrong(self):
        result = outcome.ChildResult(4, "", "ifsec: budget exhausted: ...\n")
        self.assertTrue(outcome.problems(CHECK, result))

    def test_traceback_is_wrong(self):
        result = outcome.ChildResult(
            1, REPORT, "Traceback (most recent call last):\n  ...\n")
        self.assertTrue(outcome.problems(CHECK, result))

    def test_other_failing_checks_are_wrong(self):
        both = REPORT.replace('"status": "pass"', '"status": "fail"')
        self.assertTrue(outcome.problems(CHECK,
                                         outcome.ChildResult(1, both, "")))
        self.assertTrue(outcome.problems(
            CHECK, outcome.ChildResult(1, "not json", "")))

    def test_report_that_differs_between_repetitions_is_wrong(self):
        changed = REPORT.replace('"schema": 1', '"schema": 2')
        result = outcome.ChildResult(1, changed, "")
        self.assertEqual(outcome.problems(CHECK, result), [])
        self.assertTrue(outcome.problems(CHECK, result, REPORT))

    def test_replay_that_does_not_reproduce_is_wrong(self):
        silent = outcome.ChildResult(0, "replay: check ...\n", "")
        self.assertTrue(outcome.problems(REPLAY, silent))
        rejected = outcome.ChildResult(2, "", "ifsec: error: stale\n")
        self.assertTrue(outcome.problems(REPLAY, rejected))


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_file_lists_what_the_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, *_ in layers.LAYER_METRICS])
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_s", "peak_rss_mb", "setup_s"})
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))


class SpeedometerTest(unittest.TestCase):
    def test_span_is_scaled_by_the_loop_speed_in_it(self):
        meter = speed.Speedometer()
        meter.stop()
        ref, step = speed.REFERENCE_S, speed.INTERVAL_S
        # The CPU ran at 1/2 and then 1/4 of the reference speed; the
        # loop's CPU time within the span is taken out of it.
        meter.samples = [(-1.0, -0.9, ref), (9.9, 10.0, 2 * ref),
                         (11.0, 11.1, 4 * ref)]
        self.assertAlmostEqual(meter.scaled(10.0 - step / 2, 12.0),
                               (2.0 + step / 2 - 4 * ref) * (0.5 + 0.25) / 2)
        # No sample in the span: the latest one gives the speed.
        self.assertAlmostEqual(meter.scaled(20.0, 21.0), 0.25)


class SpecgenTest(unittest.TestCase):
    def generate(self, seed):
        with tempfile.TemporaryDirectory() as directory:
            specgen.generate(seed, directory)
            texts = {}
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as handle:
                    texts[name] = handle.read()
            return texts

    def test_same_seed_same_files_other_seed_same_shape(self):
        first, again, other = (self.generate(1), self.generate(1),
                               self.generate(2))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        for name in first:
            self.assertEqual(len(first[name].splitlines()),
                             len(other[name].splitlines()), name)

    def test_every_replay_reads_a_failing_check(self):
        for workload in workloads.WORKLOADS.values():
            by_name = {c.name: c for c in workload.commands}
            for command in workload.commands:
                if command.replay_of is not None:
                    self.assertTrue(by_name[command.replay_of].failing)


if __name__ == "__main__":
    unittest.main()

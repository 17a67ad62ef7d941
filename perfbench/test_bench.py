#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds the pass executable first; takes
about a minute):

    python3 perfbench/test_bench.py
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Not the reference seed 1992, and used nowhere else in the benchmark.
HELD_OUT_SEED = 4242


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.expected = run.load_expected()

    def pass_output(self, workload, seed, mode):
        out, _, err = run.spawn(self.binary, workload, seed, mode)
        self.assertIsNotNone(out, err)
        return out

    def test_exact_counts_repeat_bit_for_bit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (
                    self.pass_output(workload, run.REFERENCE_SEED, "stages") for _ in range(2)
                )
                untraced = self.pass_output(workload, run.REFERENCE_SEED, "untraced")
                counts = [
                    {
                        name: metrics[name]
                        for name in run.PER_LAYER
                        if name not in run.TIMED
                    }
                    for metrics in (
                        run.layer_numbers(stages, {"runs": []}, 1.0)
                        for stages in (first, second)
                    )
                ]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["suprenum.events"], 0)
                self.assertEqual(
                    counts[0]["suprenum.events"], sum(r["events"] for r in untraced["runs"])
                )

    def test_held_out_seed_traced_equals_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                checker = run.Checker(workload, HELD_OUT_SEED, self.expected)
                untraced = self.pass_output(workload, HELD_OUT_SEED, "untraced")
                stages = self.pass_output(workload, HELD_OUT_SEED, "stages")
                checker.check_pass(untraced["runs"], "untraced")
                checker.check_pass(stages["runs"], "traced")
                self.assertEqual(checker.problems, [])
                self.assertEqual(
                    [(r["label"], r["digest"]) for r in untraced["runs"]],
                    [(r["label"], r["digest"]) for r in stages["runs"]],
                )

    def test_faulted_row_loses_and_resyncs(self):
        stages = self.pass_output("preempt-faults", run.REFERENCE_SEED, "stages")
        (faulted,) = [r for r in stages["runs"] if r["label"] == "faults-V4"]
        for counter in ("stray_patterns", "atomicity_violations", "discarded_partials"):
            self.assertGreater(faulted[counter], 0, counter)

    def test_metric_names_are_well_formed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(
            [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]],
            list(run.END_TO_END.values()) + list(run.PER_LAYER.values()),
        )
        self.assertEqual(tuple(names[: len(run.WORKLOADS)]), run.WORKLOADS)

    def test_fig10_expectations_equal_the_bench_golden(self):
        golden_path = os.path.join(ROOT, "crates/harness/tests/golden/bench_digests.txt")
        with open(golden_path, encoding="utf-8") as f:
            golden = dict(line.split() for line in f if re.fullmatch(r"V\d \S+\n?", line))
        ours = {label: row["digest"] for label, row in self.expected["fig10-ladder"].items()}
        self.assertEqual(ours, golden)


if __name__ == "__main__":
    unittest.main()

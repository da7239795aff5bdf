#!/usr/bin/env python3
"""Selftests for perf_ab.py's result parsing, statistics and verdicts (run
via ctest or directly). Canned result lines only: no git, no build."""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
    METRICS = {m["name"]: m for m in json.load(f)["end_to_end"]}


def result_line(correct=True, failed=0, **values):
    """One result line as perfbench/run.py prints it."""
    return json.dumps({
        "attempted": 10, "correct": correct, "failed": failed,
        "metrics": {name: {"value": v, "unit": METRICS[name]["unit"]}
                    for name, v in values.items()}})


def lower(bound=0.25):
    return {"name": "job_s", "unit": "s", "better": "lower", "bound": bound}


def higher(bound=0.25):
    return {"name": "steps_per_s", "unit": "1/s", "better": "higher",
            "bound": bound}


class ParseTest(unittest.TestCase):
    def test_reads_the_last_line(self):
        stdout = "setup done\n" + result_line(job_s=0.5, step_p50_us=0.2)
        self.assertEqual(perf_ab.parse_result(stdout + "\n\n"),
                         {"job_s": 0.5, "step_p50_us": 0.2})

    def test_incorrect_run_is_rejected(self):
        with self.assertRaisesRegex(perf_ab.RunRejected, "not correct"):
            perf_ab.parse_result(result_line(correct=False, job_s=0.5))

    def test_failed_operations_are_rejected(self):
        with self.assertRaisesRegex(perf_ab.RunRejected, "3 operations"):
            perf_ab.parse_result(result_line(failed=3, job_s=0.5))

    def test_garbage_and_empty_output_are_rejected(self):
        for stdout in ("", "\n", "building...\nnot json"):
            with self.assertRaises(perf_ab.RunRejected):
                perf_ab.parse_result(stdout)


class OrderTest(unittest.TestCase):
    def test_sides_alternate_and_each_runs_once_per_pair(self):
        orders = [perf_ab.pair_order(i) for i in range(6)]
        self.assertEqual([o[0] for o in orders],
                         ["base", "change"] * 3)
        for order in orders:
            self.assertEqual(sorted(order), ["base", "change"])


class CompareTest(unittest.TestCase):
    def test_statistics(self):
        r = perf_ab.compare(lower(), [4, 1, 3, 2, 5], [2, 1, 2, 1, 3])
        self.assertEqual(r["base"], 3)
        self.assertEqual(r["base_iqr"], (2, 4))
        self.assertEqual(r["change"], 2)
        self.assertEqual(r["change_iqr"], (1, 2))
        self.assertAlmostEqual(r["delta_pct"], -100.0 / 3)
        self.assertEqual((r["wins"], r["pairs"]), (4, 5))

    def test_lower_is_better_improvement(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
        change = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 0.81, 0.8]
        r = perf_ab.compare(lower(), base, change)
        self.assertEqual((r["wins"], r["verdict"]), (10, "better"))
        # The same pairs read the other way round are a regression, but
        # within the 25% bound: flat, not worse.
        r = perf_ab.compare(lower(), change, base)
        self.assertEqual((r["wins"], r["verdict"]), (0, "flat"))

    def test_higher_is_better_both_directions(self):
        base = [100.0, 102.0, 98.0, 101.0, 99.0]
        faster = [130.0, 131.0, 129.0, 133.0, 128.0]
        r = perf_ab.compare(higher(), base, faster)
        self.assertEqual((r["wins"], r["verdict"]), (5, "better"))
        slower = [60.0, 61.0, 59.0, 62.0, 58.0]
        r = perf_ab.compare(higher(), base, slower)
        self.assertEqual((r["wins"], r["verdict"]), (0, "worse"))

    def test_bound_is_exclusive_lower_is_better(self):
        # Median 4 -> 5 is +25% exactly: at the bound, not past it.
        self.assertEqual(
            perf_ab.compare(lower(), [4.0] * 3, [5.0] * 3)["verdict"], "flat")
        self.assertEqual(
            perf_ab.compare(lower(), [4.0] * 3, [5.01] * 3)["verdict"],
            "worse")
        # A tighter bound turns the same +25% into a regression.
        self.assertEqual(
            perf_ab.compare(lower(0.2), [4.0] * 3, [5.0] * 3)["verdict"],
            "worse")

    def test_bound_is_exclusive_higher_is_better(self):
        self.assertEqual(
            perf_ab.compare(higher(), [4.0] * 3, [3.0] * 3)["verdict"], "flat")
        self.assertEqual(
            perf_ab.compare(higher(), [4.0] * 3, [2.99] * 3)["verdict"],
            "worse")

    def test_ties_win_nothing(self):
        r = perf_ab.compare(lower(), [0.5] * 10, [0.5] * 10)
        self.assertEqual((r["wins"], r["delta_pct"], r["verdict"]),
                         (0, 0.0, "flat"))
        # A deterministic metric that is 0 on both sides stays flat.
        r = perf_ab.compare(lower(), [0.0] * 4, [0.0] * 4)
        self.assertEqual(r["verdict"], "flat")

    def test_ties_count_against_the_win_share(self):
        base = [1.0] * 10
        # 8 wins and 2 ties: 80% of pairs, a gap past the (zero) IQR.
        change = [0.9] * 8 + [1.0] * 2
        self.assertEqual(perf_ab.compare(lower(), base, change)["verdict"],
                         "better")
        # 7 wins and 3 ties: a big median gap, but too few pairs.
        change = [0.5] * 7 + [1.0] * 3
        r = perf_ab.compare(lower(), base, change)
        self.assertEqual((r["wins"], r["verdict"]), (7, "flat"))

    def test_gap_inside_the_base_iqr_is_flat(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]  # IQR 2..4
        change = [0.9, 1.9, 2.9, 3.9, 4.9]  # wins every pair by 0.1
        r = perf_ab.compare(lower(), base, change)
        self.assertEqual((r["wins"], r["verdict"]), (5, "flat"))

    def test_identical_runs_are_marked(self):
        r = perf_ab.compare(lower(), [0.10581970382289296] * 4,
                            [0.10581970382289296] * 4)
        self.assertEqual(perf_ab.fmt_medians(r),
                         "0.10581970382289296 on every run")
        # Equal medians from differing runs are not identical.
        r = perf_ab.compare(lower(), [1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        self.assertEqual(perf_ab.fmt_medians(r), "2 -> 2")

    def test_zero_base_median_that_grows_is_worse(self):
        r = perf_ab.compare(lower(), [0.0] * 3, [0.1] * 3)
        self.assertEqual(r["verdict"], "worse")

    def test_summary_line_names_every_metric(self):
        rows = [perf_ab.compare(METRICS["step_p50_us"], [0.23] * 10,
                                [0.19] * 10),
                perf_ab.compare(METRICS["weighted_loss"], [0.1] * 10,
                                [0.1] * 10)]
        line = perf_ab.summary("sweep_dense", rows, "abc1234", 1, 20)
        self.assertEqual(line.count("\n"), 0)
        self.assertIn("sweep_dense vs abc1234", line)
        self.assertIn("10 pairs of 20 s", line)
        self.assertIn("step_p50_us 0.23 -> 0.19 (-17.4%, 10/10, better)",
                      line)
        self.assertIn("weighted_loss 0.1 on every run (+0.0%, 0/10, flat)",
                      line)
        table = perf_ab.table(rows)
        self.assertEqual(len(table.splitlines()), 3)


if __name__ == "__main__":
    unittest.main()

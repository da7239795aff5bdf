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
    SPEC = json.load(f)
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def result_line(correct=True, failed=0, **values):
    """One result line as perfbench/run.py prints it."""
    units = {**METRICS, **PER_LAYER}
    return json.dumps({
        "attempted": 10, "correct": correct, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]["unit"]}
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


class TraceTest(unittest.TestCase):
    """--trace pairs the per-layer metrics, which carry no bound."""

    def test_traced_runs_pass_the_trace_flag(self):
        traced = perf_ab.perfbench_command("gateway_mux", 1, 10, True)
        self.assertEqual(traced[-2:], ["--trace", "1"])
        plain = perf_ab.perfbench_command("gateway_mux", 1, 10, False)
        self.assertEqual(plain[-2:], ["--trace", "0"])
        self.assertEqual(traced[:-1], plain[:-1])

    def test_per_layer_metrics_have_a_direction_but_no_bound(self):
        for m in SPEC["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"), m["name"])
            self.assertNotIn("bound", m, m["name"])

    def test_a_traced_result_line_parses(self):
        line = result_line(**{"sim.runner_dispatch_us": 78.5,
                              "gateway.remove_stream_us": 0.61})
        self.assertEqual(perf_ab.parse_result(line),
                         {"sim.runner_dispatch_us": 78.5,
                          "gateway.remove_stream_us": 0.61})

    def test_paired_statistics_match_compare_without_a_verdict(self):
        metric = PER_LAYER["sim.runner_dispatch_us"]
        base = [80.0, 78.0, 93.0, 79.0, 85.0]
        change = [20.0, 11.0, 19.0, 30.0, 12.0]
        r = perf_ab.paired(metric, base, change)
        self.assertNotIn("verdict", r)
        self.assertEqual((r["base"], r["change"]), (80.0, 19.0))
        self.assertEqual((r["wins"], r["pairs"]), (5, 5))
        self.assertAlmostEqual(r["delta_pct"], -76.25)
        bounded = dict(metric, bound=0.25)
        full = perf_ab.compare(bounded, base, change)
        self.assertEqual({k: v for k, v in full.items() if k != "verdict"}, r)

    def test_wins_follow_the_direction_of_the_metric(self):
        higher = PER_LAYER["obs.scrapes"]
        self.assertEqual(higher["better"], "higher")
        r = perf_ab.paired(higher, [10, 10, 10], [12, 9, 10])
        self.assertEqual(r["wins"], 1)  # 12 > 10 wins, 9 loses, 10 ties

    def test_metrics_of_other_workloads_are_left_out(self):
        rows = [perf_ab.paired(PER_LAYER["sim.simulate_s"], [0.0] * 3,
                               [0.0] * 3),
                perf_ab.paired(PER_LAYER["sim.slots"], [0, 0, 0], [0, 0, 0]),
                perf_ab.paired(PER_LAYER["sim.runner_dispatch_us"],
                               [80.0] * 3, [20.0] * 3),
                # Zero on one side only is a measurement, not an absence.
                perf_ab.paired(PER_LAYER["obs.scrapes"], [0, 0, 0],
                               [0, 1, 0]),
                # So is a constant that is not zero.
                perf_ab.paired(PER_LAYER["daemon.reconfigs"], [200] * 3,
                               [200] * 3)]
        self.assertEqual([r["name"] for r in perf_ab.measured(rows)],
                         ["sim.runner_dispatch_us", "obs.scrapes",
                          "daemon.reconfigs"])

    def test_report_of_a_traced_pairing_has_no_verdict(self):
        names = ["sim.runner_dispatch_us", "sim.simulate_s",
                 "gateway.remove_stream_us"]
        metrics = [PER_LAYER[n] for n in names]
        base = [{"sim.runner_dispatch_us": 80.0 + i, "sim.simulate_s": 0.0,
                 "gateway.remove_stream_us": 0.5} for i in range(4)]
        # Twice as slow: an end-to-end metric this far off would be worse.
        change = [{"sim.runner_dispatch_us": 160.0 + i,
                   "sim.simulate_s": 0.0,
                   "gateway.remove_stream_us": 1.0} for i in range(4)]
        text, worse = perf_ab.report(
            "gateway_mux", metrics, {"base": base, "change": change},
            "abc1234", 1, 10, trace=True)
        self.assertFalse(worse)
        self.assertIn("4 pairs of 10 s, traced", text)
        self.assertIn("sim.runner_dispatch_us", text)
        self.assertNotIn("sim.simulate_s", text)  # 0 everywhere: left out
        for word in ("better", "worse", "flat"):
            self.assertNotIn(word, text)

    def test_report_of_an_untraced_pairing_flags_worse(self):
        base = [{"job_s": 1.0}] * 3
        text, worse = perf_ab.report("sim_sparse", [METRICS["job_s"]],
                                     {"base": base,
                                      "change": [{"job_s": 2.0}] * 3},
                                     "abc1234", 1, 20, trace=False)
        self.assertTrue(worse)
        self.assertIn("(+100.0%, 0/3, worse)", text)
        _, worse = perf_ab.report("sim_sparse", [METRICS["job_s"]],
                                  {"base": base, "change": base},
                                  "abc1234", 1, 20, trace=False)
        self.assertFalse(worse)

    def test_table_and_summary_print_no_verdict(self):
        rows = [perf_ab.paired(PER_LAYER["sim.runner_dispatch_us"],
                               [80.0] * 4, [20.0] * 4),
                perf_ab.paired(PER_LAYER["gateway.remove_stream_us"],
                               [0.6, 0.7, 0.6, 0.7], [0.7, 0.8, 0.7, 0.8])]
        table = perf_ab.table(rows)
        header = table.splitlines()[0]
        self.assertTrue(header.rstrip().endswith("won"), header)
        for word in ("verdict", "better", "worse", "flat"):
            self.assertNotIn(word, table)
        line = perf_ab.summary("gateway_mux", rows, "abc1234", 1, 10,
                               trace=True)
        self.assertIn("perf_ab gateway_mux --trace vs abc1234", line)
        self.assertIn("sim.runner_dispatch_us 80 -> 20 (-75.0%, 4/4)", line)
        self.assertIn("gateway.remove_stream_us 0.65 -> 0.75 (+15.4%, 0/4)",
                      line)
        for word in ("better", "worse", "flat"):
            self.assertNotIn(word, line)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Selftests for validate_bench_json.py (run via ctest or directly)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_bench_json as v  # noqa: E402


def bench_doc():
    return {
        "schema": "rtsmooth-bench-v1",
        "bench": "fig_test",
        "options": {"frames": 120, "quick": True, "threads": 0},
        "series": [{"name": "main", "header": ["a", "b"],
                    "rows": [["1", "2"], ["3", "4"]]}],
        "runner": {"tasks": 2, "threads": 1, "total_task_us": 10,
                   "max_task_us": 7, "queue_us": 1, "wall_us": 12},
        "registry": {
            "counters": {"c": 1}, "gauges": {}, "histograms": {
                "h": {"count": 2, "sum": 3, "min": 1, "max": 2,
                      "bounds": [2], "counts": [1, 1]}}},
    }


def gateway_doc():
    doc = bench_doc()
    doc["bench"] = "gateway"
    doc["registry"]["counters"] = {
        "gateway.admitted_bytes": 1000, "gateway.served_bytes": 900,
        "gateway.dropped_bytes": 50, "gateway.unserved_bytes": 25,
    }
    doc["gateway"] = {"streams": 8192, "steps": 120,
                      "stream_steps": 8192 * 120, "wall_us": 16000,
                      "stream_steps_per_sec": 6.1e7}
    return doc


def step(t):
    return {"t": t, "arrived": 1, "sent": 1, "delivered": 1, "played": 0,
            "dropped_server": 0, "dropped_client": 0, "retransmitted": 0,
            "server_occupancy": 5, "client_occupancy": 3,
            "link_idle": False, "stalled": False}


def incident_doc():
    return {
        "schema": "rtsmooth-incident-v1",
        "incident": 0,
        "trigger": {"type": "violation", "t": 11,
                    "kind": "client_underflow", "magnitude": 1},
        "context": {"policy": "greedy"},
        "steps_recorded": 12,
        "window_capacity": 4,
        "truncated": True,
        "window": [step(8), step(9), step(10), step(11)],
    }


def soak_doc():
    return {
        "schema": "rtsmooth-soak-v1",
        "daemon": {"channels": 4, "policy": "greedy", "server_buffer": 1024,
                   "client_buffer": 1024, "rate": 256, "smoothing_delay": 4,
                   "link_delay": 1, "max_live_runs": 4096, "balanced": True},
        "steps": 60000,
        "engine_steps": 60013,
        "stop_signal": 15,
        "reconfigs": {"applied": 119, "rejected": 1, "drain_steps": 5,
                      "max_lag": 5, "queued": 0, "forced_residual": False},
        "degradation": {"level": "normal", "rung": 0, "escalations": 3,
                        "deescalations": 3, "value_floor": 1,
                        "shed_channels": 0},
        "slo": {"breaches": {"stall": 2, "loss": 0, "occupancy": 0,
                             "burn": 1},
                "incidents_captured": 2, "incidents_written": 2,
                "cooldown_suppressed": 0, "triggers": 2,
                "stall_rate": 0.01, "loss_rate": 0.0,
                "occupancy_step_frac": 0.4},
        "ingest": {"polled_frames": 120000, "polled_bytes": 1500000,
                   "stalled_polls": 0, "retries": 0, "source_ended": True,
                   "timed_out": False, "pending_depth": 0,
                   "truncated_tail_bytes": 0, "rejected_records": 0},
        "admission": {"admitted_bytes": 1400000, "admitted_frames": 110000,
                      "budget_refused_bytes": 50000,
                      "budget_refused_frames": 5000,
                      "channel_shed_bytes": 30000,
                      "channel_shed_frames": 3000,
                      "slot_refused_bytes": 10000,
                      "slot_refused_frames": 1000,
                      "unserved_bytes": 10000, "unserved_frames": 1000,
                      "floor_shed_bytes": 0, "ledger_conserves": True},
        "report": {"offered_bytes": 1400000, "offered_weight": 2800000,
                   "played_bytes": 1350000, "dropped_server_bytes": 40000,
                   "dropped_client_overflow_bytes": 0,
                   "dropped_client_late_bytes": 10000,
                   "lost_link_bytes": 0, "residual_bytes": 0,
                   "retransmitted_bytes": 0, "stall_steps": 12,
                   "max_server_occupancy": 1024,
                   "max_client_occupancy": 1024, "max_lateness": 3,
                   "weighted_loss": 0.03, "conserves": True},
        "registry": {"counters": {"daemon.steps": 60000}, "gauges": {},
                     "histograms": {}},
    }


def stats_section():
    return {"schema": "rtsmooth-stats-v1", "socket_path": "/tmp/rts.sock",
            "running": True, "accepted": 12, "served_json": 5,
            "served_metrics": 5, "served_series": 2, "served_health": 1,
            "unavailable": 0, "bad_requests": 1, "not_found": 0,
            "io_errors": 0}


def series_doc():
    return {
        "schema": "rtsmooth-series-v1",
        "slot_steps": 100,
        "capacity": 4,
        "slots": 3,
        "evicted": 2,
        "slot_end_steps": [300, 400, 500],
        "counters": {
            "daemon.steps": {"base": 200, "deltas": [100, 100, 100],
                             "total": 500},
            "client.late_bytes": {"base": 0, "deltas": [0, 40, 10],
                                  "total": 50},
        },
        "gauges": {"client.max_occupancy": [512, 512, 1024]},
        "histograms": {
            "daemon.poll_bytes": {
                "bounds": [16, 64],
                "count": {"base": 4, "deltas": [2, 0, 3], "total": 9},
                "sum": {"base": 90, "deltas": [40, 0, 70], "total": 200},
                "bucket_base": [1, 3, 0],
                "buckets": [[1, 1, 0], [0, 0, 0], [0, 2, 1]],
            },
        },
        "burn": {
            "short_slots": 2,
            "long_slots": 3,
            "budgets": [{
                "name": "deadline_miss",
                "budget": 0.01,
                "threshold": 1.0,
                "bad": ["client.late_bytes"],
                "total": ["client.played_bytes", "client.late_bytes"],
                "short_burn": 2.5,
                "long_burn": 1.7,
                "firing": True,
                "alerts": 2,
            }],
        },
    }


PROM_TEXT = """\
# TYPE rtsmooth_daemon_steps counter
rtsmooth_daemon_steps 60000
# TYPE rtsmooth_client_max_occupancy gauge
rtsmooth_client_max_occupancy 1024
# TYPE rtsmooth_gateway_slack_steps histogram
rtsmooth_gateway_slack_steps_bucket{le="1"} 3
rtsmooth_gateway_slack_steps_bucket{le="2"} 5
rtsmooth_gateway_slack_steps_bucket{le="+Inf"} 7
rtsmooth_gateway_slack_steps_sum 19
rtsmooth_gateway_slack_steps_count 7
"""


class CheckFileTest(unittest.TestCase):
    def check(self, doc):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            return v.check_file(path)
        finally:
            os.unlink(path)

    def check_text(self, text, suffix=".prom"):
        with tempfile.NamedTemporaryFile(
                "w", suffix=suffix, delete=False) as f:
            f.write(text)
            path = f.name
        try:
            return v.check_file(path)
        finally:
            os.unlink(path)

    def test_valid_bench_doc(self):
        self.assertEqual(self.check(bench_doc()), [])

    def test_valid_gateway_doc(self):
        self.assertEqual(self.check(gateway_doc()), [])

    def test_gateway_section_missing_key(self):
        doc = gateway_doc()
        del doc["gateway"]["wall_us"]
        errors = self.check(doc)
        self.assertTrue(any("gateway section lacks ['wall_us']" in e
                            for e in errors))

    def test_gateway_section_inconsistent_stream_steps(self):
        doc = gateway_doc()
        doc["gateway"]["stream_steps"] = 7
        errors = self.check(doc)
        self.assertTrue(any("stream_steps 7 !=" in e for e in errors))

    def test_gateway_section_nonpositive_counts(self):
        doc = gateway_doc()
        doc["gateway"]["streams"] = 0
        doc["gateway"]["stream_steps_per_sec"] = 0
        errors = self.check(doc)
        self.assertTrue(any("streams must be a positive int" in e
                            for e in errors))
        self.assertTrue(any("stream_steps_per_sec" in e for e in errors))

    def test_gateway_section_requires_ledger_counters(self):
        doc = gateway_doc()
        del doc["registry"]["counters"]["gateway.served_bytes"]
        errors = self.check(doc)
        self.assertTrue(any("ledger counters" in e and "served_bytes" in e
                            for e in errors))

    def test_bench_doc_without_gateway_section_still_valid(self):
        self.assertEqual(self.check(bench_doc()), [])

    def test_valid_incident_doc(self):
        self.assertEqual(self.check(incident_doc()), [])

    def test_reports_all_violations_not_just_first(self):
        doc = bench_doc()
        doc["series"][0]["rows"].append(["lonely"])        # wrong width
        doc["registry"]["histograms"]["h"]["counts"] = [5]  # wrong buckets
        errors = self.check(doc)
        self.assertGreaterEqual(len(errors), 2)
        self.assertTrue(any("row width" in e for e in errors))
        self.assertTrue(any("bounds+1" in e for e in errors))

    def test_incident_window_must_be_chronological(self):
        doc = incident_doc()
        doc["window"][2]["t"] = 8
        errors = self.check(doc)
        self.assertTrue(any("not after" in e for e in errors))

    def test_incident_window_over_capacity(self):
        doc = incident_doc()
        doc["window_capacity"] = 3
        errors = self.check(doc)
        self.assertTrue(any("over the" in e for e in errors))

    def test_truncated_incident_needs_full_window(self):
        doc = incident_doc()
        doc["window"].pop()
        doc["steps_recorded"] = 3
        errors = self.check(doc)
        self.assertTrue(any("full window" in e for e in errors))

    def test_incident_steps_recorded_floor(self):
        doc = incident_doc()
        doc["steps_recorded"] = 2
        errors = self.check(doc)
        self.assertTrue(any("steps_recorded" in e for e in errors))

    def test_incident_missing_step_key(self):
        doc = incident_doc()
        del doc["window"][1]["stalled"]
        errors = self.check(doc)
        self.assertTrue(any("window[1] lacks" in e for e in errors))

    def test_valid_soak_doc(self):
        self.assertEqual(self.check(soak_doc()), [])

    def test_soak_missing_section_and_key(self):
        doc = soak_doc()
        del doc["ingest"]
        del doc["reconfigs"]["max_lag"]
        errors = self.check(doc)
        self.assertTrue(any("['ingest']" in e for e in errors))
        self.assertTrue(any("reconfigs lacks ['max_lag']" in e
                            for e in errors))

    def test_soak_flags_broken_invariants(self):
        doc = soak_doc()
        doc["admission"]["ledger_conserves"] = False
        doc["report"]["conserves"] = False
        errors = self.check(doc)
        self.assertTrue(any("ledger" in e for e in errors))
        self.assertTrue(any("report does not conserve" in e for e in errors))

    def test_soak_rates_bounded(self):
        doc = soak_doc()
        doc["slo"]["stall_rate"] = 1.5
        doc["report"]["weighted_loss"] = -0.1
        errors = self.check(doc)
        self.assertTrue(any("stall_rate" in e for e in errors))
        self.assertTrue(any("weighted_loss" in e for e in errors))

    def test_soak_negative_steps(self):
        doc = soak_doc()
        doc["steps"] = -1
        errors = self.check(doc)
        self.assertTrue(any("steps must be a non-negative int" in e
                            for e in errors))

    def test_soak_live_doc_may_not_conserve(self):
        doc = soak_doc()
        doc["stop_signal"] = 0          # mid-run scrape: bytes in flight
        doc["report"]["conserves"] = False
        self.assertEqual(self.check(doc), [])

    def test_soak_doc_with_stats_section(self):
        doc = soak_doc()
        doc["stats"] = stats_section()
        self.assertEqual(self.check(doc), [])

    def test_soak_stats_section_wrong_schema(self):
        doc = soak_doc()
        doc["stats"] = stats_section()
        doc["stats"]["schema"] = "rtsmooth-stats-v2"
        errors = self.check(doc)
        self.assertTrue(any("rtsmooth-stats-v1" in e for e in errors))

    def test_soak_stats_section_missing_and_negative(self):
        doc = soak_doc()
        doc["stats"] = stats_section()
        del doc["stats"]["io_errors"]
        doc["stats"]["accepted"] = -1
        errors = self.check(doc)
        self.assertTrue(any("stats section lacks ['io_errors']" in e
                            for e in errors))
        self.assertTrue(any("accepted must be a non-negative int" in e
                            for e in errors))

    def test_soak_missing_new_ingest_and_report_keys(self):
        doc = soak_doc()
        del doc["ingest"]["truncated_tail_bytes"]
        del doc["report"]["max_lateness"]
        errors = self.check(doc)
        self.assertTrue(any("ingest lacks ['truncated_tail_bytes']" in e
                            for e in errors))
        self.assertTrue(any("report lacks ['max_lateness']" in e
                            for e in errors))

    def test_soak_negative_max_lateness(self):
        doc = soak_doc()
        doc["report"]["max_lateness"] = -3
        errors = self.check(doc)
        self.assertTrue(any("max_lateness" in e for e in errors))

    def test_soak_late_bytes_need_positive_max_lateness(self):
        doc = soak_doc()
        doc["report"]["max_lateness"] = 0
        errors = self.check(doc)
        self.assertTrue(any("late bytes but max_lateness 0" in e
                            for e in errors))

    def test_soak_max_lateness_needs_late_bytes(self):
        doc = soak_doc()
        doc["report"]["dropped_client_late_bytes"] = 0
        doc["report"]["played_bytes"] += 10000
        errors = self.check(doc)
        self.assertTrue(any("no byte was late" in e for e in errors))

    def test_soak_live_doc_may_see_lateness_before_late_bytes(self):
        doc = soak_doc()
        doc["report"]["dropped_client_late_bytes"] = 0
        doc["report"]["conserves"] = False
        doc["stop_signal"] = 0
        self.assertEqual(self.check(doc), [])

    def test_valid_series_doc(self):
        self.assertEqual(self.check(series_doc()), [])

    def test_series_broken_counter_conservation(self):
        doc = series_doc()
        doc["counters"]["daemon.steps"]["total"] = 499
        errors = self.check(doc)
        self.assertTrue(any("base 200 + deltas 300 != total 499" in e
                            for e in errors))

    def test_series_negative_counter_delta(self):
        doc = series_doc()
        doc["counters"]["daemon.steps"]["deltas"] = [100, -100, 500]
        errors = self.check(doc)
        self.assertTrue(any("negative delta" in e for e in errors))

    def test_series_slots_mismatch(self):
        doc = series_doc()
        doc["slots"] = 2
        errors = self.check(doc)
        self.assertTrue(any("slots 2 != len(slot_end_steps) 3" in e
                            for e in errors))

    def test_series_slot_ends_not_rising(self):
        doc = series_doc()
        doc["slot_end_steps"] = [300, 300, 500]
        errors = self.check(doc)
        self.assertTrue(any("not strictly rising" in e for e in errors))

    def test_series_over_capacity(self):
        doc = series_doc()
        doc["capacity"] = 2
        errors = self.check(doc)
        self.assertTrue(any("over its capacity" in e for e in errors))

    def test_series_wrong_delta_length(self):
        doc = series_doc()
        doc["counters"]["daemon.steps"]["deltas"] = [300]
        doc["counters"]["daemon.steps"]["total"] = 500
        errors = self.check(doc)
        self.assertTrue(any("1 deltas for 3 slots" in e for e in errors))

    def test_series_gauge_must_not_decrease(self):
        doc = series_doc()
        doc["gauges"]["client.max_occupancy"] = [1024, 512, 512]
        errors = self.check(doc)
        self.assertTrue(any("decreases" in e for e in errors))

    def test_series_histogram_row_count_mismatch(self):
        doc = series_doc()
        doc["histograms"]["daemon.poll_bytes"]["buckets"][0] = [1, 0, 0]
        errors = self.check(doc)
        self.assertTrue(any("row 0 bucket deltas sum to 1" in e
                            for e in errors))

    def test_series_histogram_bucket_base_mismatch(self):
        doc = series_doc()
        doc["histograms"]["daemon.poll_bytes"]["bucket_base"] = [1, 1, 0]
        errors = self.check(doc)
        self.assertTrue(any("bucket_base sums to 2" in e for e in errors))

    def test_series_burn_budget_fraction_bounds(self):
        doc = series_doc()
        doc["burn"]["budgets"][0]["budget"] = 1.5
        errors = self.check(doc)
        self.assertTrue(any("outside (0, 1]" in e for e in errors))

    def test_series_burn_windows_ordered(self):
        doc = series_doc()
        doc["burn"]["long_slots"] = 1
        errors = self.check(doc)
        self.assertTrue(any("long_slots" in e and ">= short_slots" in e
                            for e in errors))

    def test_series_burn_empty_bad_list(self):
        doc = series_doc()
        doc["burn"]["budgets"][0]["bad"] = []
        errors = self.check(doc)
        self.assertTrue(any("non-empty list of counter names" in e
                            for e in errors))

    def test_soak_doc_with_embedded_series(self):
        doc = soak_doc()
        series = series_doc()
        series["counters"] = {"daemon.steps": {
            "base": 59000, "deltas": [400, 300, 300], "total": 60000}}
        doc["series"] = series
        self.assertEqual(self.check(doc), [])

    def test_soak_embedded_series_exceeds_registry(self):
        doc = soak_doc()
        series = series_doc()
        # The registry pins daemon.steps at 60000; a series total beyond
        # the live value cannot happen (the series lags, never leads).
        series["counters"] = {"daemon.steps": {
            "base": 60000, "deltas": [1, 0, 0], "total": 60001}}
        doc["series"] = series
        errors = self.check(doc)
        self.assertTrue(any("exceeds registry value 60000" in e
                            for e in errors))

    def test_soak_slo_missing_burn_breach(self):
        doc = soak_doc()
        del doc["slo"]["breaches"]["burn"]
        errors = self.check(doc)
        self.assertTrue(any("breaches lacks ['burn']" in e for e in errors))

    def test_valid_prometheus_exposition(self):
        self.assertEqual(self.check_text(PROM_TEXT), [])

    def test_prometheus_sample_without_type(self):
        errors = self.check_text("rtsmooth_orphan 1\n")
        self.assertTrue(any("precedes its # TYPE" in e for e in errors))

    def test_prometheus_type_without_samples(self):
        errors = self.check_text("# TYPE rtsmooth_ghost counter\n")
        self.assertTrue(any("never sampled" in e for e in errors))

    def test_prometheus_missing_prefix(self):
        errors = self.check_text("# TYPE naked counter\nnaked 1\n")
        self.assertTrue(any("rtsmooth_ prefix" in e for e in errors))

    def test_prometheus_histogram_not_cumulative(self):
        bad = PROM_TEXT.replace(
            'rtsmooth_gateway_slack_steps_bucket{le="2"} 5',
            'rtsmooth_gateway_slack_steps_bucket{le="2"} 2')
        errors = self.check_text(bad)
        self.assertTrue(any("not cumulative" in e for e in errors))

    def test_prometheus_histogram_count_mismatch(self):
        bad = PROM_TEXT.replace("rtsmooth_gateway_slack_steps_count 7",
                                "rtsmooth_gateway_slack_steps_count 9")
        errors = self.check_text(bad)
        self.assertTrue(any("_count" in e for e in errors))

    def test_prometheus_histogram_needs_inf_bucket(self):
        bad = PROM_TEXT.replace(
            'rtsmooth_gateway_slack_steps_bucket{le="+Inf"} 7\n', "")
        errors = self.check_text(bad)
        self.assertTrue(any('le="+Inf"' in e for e in errors))

    def test_prometheus_malformed_sample(self):
        errors = self.check_text(
            "# TYPE rtsmooth_x counter\nrtsmooth_x one\n")
        self.assertTrue(any("malformed sample" in e for e in errors))

    def test_unrecognised_schema(self):
        errors = self.check({"schema": "nope"})
        self.assertTrue(any("unrecognised schema" in e for e in errors))

    def test_google_benchmark_doc(self):
        doc = {"context": {}, "benchmarks": [{"name": "BM_X"}]}
        self.assertEqual(self.check(doc), [])
        doc["benchmarks"] = []
        self.assertTrue(self.check(doc))


if __name__ == "__main__":
    unittest.main()

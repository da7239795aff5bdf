#!/usr/bin/env python3
"""Validates the repo's machine-readable JSON artifacts.

Five document kinds are accepted:

* the repo's own `rtsmooth-bench-v1` schema (figure/table benches):
    {
      "schema": "rtsmooth-bench-v1",
      "bench": "<name>",
      "options": {"frames": int, "quick": bool, "threads": int},
      "series": [{"name": str, "header": [str], "rows": [[str]]}, ...],
      "runner": {"tasks": int, "threads": int, "total_task_us": int,
                 "max_task_us": int, "queue_us": int, "wall_us": int},
      "registry": {"counters": {...}, "gauges": {...},
                   "histograms": {...}, "timers": {...}},
    }
  with at least one series, every series non-empty, and every row the same
  width as its header. The gateway bench attaches an optional quarantined
  top-level `gateway` section (wall-clock throughput, never diffed):
    {"streams": int, "steps": int, "stream_steps": int, "wall_us": int,
     "stream_steps_per_sec": number}
  which, when present, must carry its full key set with positive counts and
  be accompanied by the gateway.* ledger counters in the registry;

* the flight recorder's `rtsmooth-incident-v1` schema
  (obs/flight_recorder.h):
    {
      "schema": "rtsmooth-incident-v1",
      "incident": int,                  # index among captured incidents
      "trigger": {"type": str, "t": int, ...},
      "context": {...},                 # run parameters, self-contained
      "steps_recorded": int,            # >= len(window)
      "window_capacity": int,           # >= 1
      "truncated": bool,                # ring wrapped before capture
      "window": [{step record}, ...],   # chronological, t strictly rising
    }

* the serving daemon's `rtsmooth-soak-v1` snapshot (daemon/rtsmoothd.h):
    {
      "schema": "rtsmooth-soak-v1",
      "daemon": {...},                  # effective engine configuration
      "steps": int, "engine_steps": int, "stop_signal": int,
      "reconfigs": {...}, "degradation": {...}, "slo": {...},
      "ingest": {...}, "admission": {...}, "report": {...},
      "stats": {...},                   # optional: rtsmooth-stats-v1
      "registry": {...},                # same shape as the bench registry
    }
  with every section carrying its full key set, the ingest ledger holding,
  the byte-conservation invariant holding in terminal snapshots (a live
  mid-run document has bytes in flight), and rates inside [0, 1]. The
  optional `stats` section (present when the daemon served a live stats
  endpoint) carries its own `rtsmooth-stats-v1` schema tag and the
  endpoint-side tallies, all non-negative. The optional `series`
  section embeds a timeline export (below) cross-checked against the
  snapshot's registry;

* the daemon timeline's `rtsmooth-series-v1` export (obs/timeline.h,
  the stats endpoint's /series route), standalone or embedded:
    {
      "schema": "rtsmooth-series-v1",
      "slot_steps": int, "capacity": int, "slots": int, "evicted": int,
      "slot_end_steps": [int],          # strictly rising, <= capacity
      "counters": {name: {"base": int, "deltas": [int], "total": int}},
      "gauges": {name: [int]},          # non-decreasing high-watermarks
      "histograms": {name: {"bounds": [...], "count": {...}, "sum": {...},
                            "bucket_base": [...], "buckets": [[...]]}},
      "burn": {"short_slots": int, "long_slots": int, "budgets": [...]},
    }
  where every delta column satisfies base + sum(deltas) == total, every
  per-slot histogram bucket row sums to that slot's count delta, counter
  deltas are non-negative, and burn budgets carry sane fractions,
  thresholds, and window burns;

* google-benchmark's native JSON (micro benches), recognised by its
  "context"/"benchmarks" top-level keys, with at least one benchmark entry.

A file that is not JSON but whose first non-blank line is a `# TYPE`
comment or a Prometheus sample line is linted as Prometheus text
exposition (the stats endpoint's /metrics route): every sample must have a
`# TYPE` of counter/gauge/histogram, every declared metric must have
samples, names carry the rtsmooth_ prefix, and histogram series must be
cumulative with a closing le="+Inf" bucket that equals _count.

Usage: validate_bench_json.py FILE [FILE...]; checks every file, reports
ALL violations found (not just the first), and exits non-zero when any
file is invalid.
"""

import json
import re
import sys

STEP_RECORD_KEYS = (
    "t", "arrived", "sent", "delivered", "played", "dropped_server",
    "dropped_client", "retransmitted", "server_occupancy",
    "client_occupancy", "link_idle", "stalled",
)


def check_histogram(errors, name, hist):
    missing = [k for k in ("count", "sum", "min", "max", "bounds", "counts")
               if k not in hist]
    if missing:
        errors.append(f"histogram {name!r} lacks {missing}")
        return
    if len(hist["counts"]) != len(hist["bounds"]) + 1:
        errors.append(f"histogram {name!r}: counts must be bounds+1 buckets")
    if sum(hist["counts"]) != hist["count"]:
        errors.append(f"histogram {name!r}: bucket counts do not sum to count")
    if list(hist["bounds"]) != sorted(set(hist["bounds"])):
        errors.append(f"histogram {name!r}: bounds not strictly increasing")


def check_registry(errors, registry):
    for section in ("counters", "gauges", "histograms"):
        if section not in registry:
            errors.append(f"registry lacks {section!r}")
        elif not isinstance(registry[section], dict):
            errors.append(f"registry {section!r} is not an object")
    for name, hist in registry.get("histograms", {}).items():
        check_histogram(errors, name, hist)
    for name, hist in registry.get("timers", {}).items():
        check_histogram(errors, name, hist)


GATEWAY_SECTION_KEYS = ("streams", "steps", "stream_steps", "wall_us",
                        "stream_steps_per_sec")

GATEWAY_LEDGER_COUNTERS = ("gateway.admitted_bytes", "gateway.served_bytes",
                           "gateway.dropped_bytes", "gateway.unserved_bytes")


def check_gateway_section(errors, doc):
    """The gateway bench's quarantined wall-clock section, when present."""
    section = doc["gateway"]
    if not isinstance(section, dict):
        errors.append("gateway section is not an object")
        return
    missing = [k for k in GATEWAY_SECTION_KEYS if k not in section]
    if missing:
        errors.append(f"gateway section lacks {missing}")
    for key in ("streams", "steps", "stream_steps", "wall_us"):
        value = section.get(key)
        if key in section and (not isinstance(value, int) or value < 1):
            errors.append(f"gateway {key} must be a positive int, "
                          f"got {value!r}")
    streams, steps = section.get("streams"), section.get("steps")
    total = section.get("stream_steps")
    if all(isinstance(v, int) for v in (streams, steps, total)) \
            and total != streams * steps:
        errors.append(f"gateway stream_steps {total} != "
                      f"streams * steps ({streams} * {steps})")
    rate = section.get("stream_steps_per_sec")
    if "stream_steps_per_sec" in section \
            and (not isinstance(rate, (int, float)) or rate <= 0):
        errors.append(f"gateway stream_steps_per_sec must be a positive "
                      f"number, got {rate!r}")
    counters = doc.get("registry", {}).get("counters", {})
    lacks = [k for k in GATEWAY_LEDGER_COUNTERS if k not in counters]
    if lacks:
        errors.append(f"gateway document lacks ledger counters {lacks}")


def check_rtsmooth(errors, doc):
    missing = [k for k in ("bench", "options", "series", "runner", "registry")
               if k not in doc]
    if missing:
        errors.append(f"missing top-level keys {missing}")
    if "bench" in doc and not doc["bench"]:
        errors.append("empty bench name")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        errors.append("series must be a non-empty array")
        series = []
    for entry in series:
        name = entry.get("name", "<unnamed>")
        header, rows = entry.get("header"), entry.get("rows")
        if not header:
            errors.append(f"series {name!r} has an empty header")
        if not rows:
            errors.append(f"series {name!r} has no rows")
        for row in rows or []:
            if header and len(row) != len(header):
                errors.append(f"series {name!r}: row width {len(row)} != "
                              f"header width {len(header)}")
    runner = doc.get("runner", {})
    missing = [k for k in ("tasks", "threads", "total_task_us", "max_task_us",
                           "queue_us", "wall_us") if k not in runner]
    if missing:
        errors.append(f"runner lacks {missing}")
    check_registry(errors, doc.get("registry", {}))
    if "gateway" in doc:
        check_gateway_section(errors, doc)


def check_incident(errors, doc):
    missing = [k for k in ("incident", "trigger", "context", "steps_recorded",
                           "window_capacity", "truncated", "window")
               if k not in doc]
    if missing:
        errors.append(f"missing top-level keys {missing}")
        return
    trigger = doc["trigger"]
    if not isinstance(trigger, dict):
        errors.append("trigger is not an object")
    else:
        if not trigger.get("type"):
            errors.append("trigger lacks a type")
        if not isinstance(trigger.get("t"), int):
            errors.append("trigger lacks an integer time 't'")
    if not isinstance(doc["context"], dict):
        errors.append("context is not an object")
    if not isinstance(doc["truncated"], bool):
        errors.append("truncated is not a bool")
    capacity = doc["window_capacity"]
    if not isinstance(capacity, int) or capacity < 1:
        errors.append(f"window_capacity must be a positive int, "
                      f"got {capacity!r}")
    window = doc["window"]
    if not isinstance(window, list) or not window:
        errors.append("window must be a non-empty array")
        return
    if isinstance(capacity, int) and len(window) > capacity:
        errors.append(f"window has {len(window)} steps, over the "
                      f"capacity {capacity}")
    if doc["truncated"] is True and isinstance(capacity, int) \
            and len(window) != capacity:
        errors.append("truncated incident must carry a full window "
                      f"({len(window)} != {capacity})")
    steps = doc["steps_recorded"]
    if not isinstance(steps, int) or steps < len(window):
        errors.append(f"steps_recorded ({steps!r}) < window length "
                      f"({len(window)})")
    prev_t = None
    for i, record in enumerate(window):
        if not isinstance(record, dict):
            errors.append(f"window[{i}] is not an object")
            continue
        missing = [k for k in STEP_RECORD_KEYS if k not in record]
        if missing:
            errors.append(f"window[{i}] lacks {missing}")
        t = record.get("t")
        if prev_t is not None and isinstance(t, int) and t <= prev_t:
            errors.append(f"window[{i}]: t={t} not after t={prev_t}")
        if isinstance(t, int):
            prev_t = t


SOAK_SECTION_KEYS = {
    "daemon": ("channels", "policy", "server_buffer", "client_buffer",
               "rate", "smoothing_delay", "link_delay", "max_live_runs",
               "balanced"),
    "reconfigs": ("applied", "rejected", "drain_steps", "max_lag",
                  "queued", "forced_residual"),
    "degradation": ("level", "rung", "escalations", "deescalations",
                    "value_floor", "shed_channels"),
    "slo": ("breaches", "incidents_captured", "incidents_written",
            "cooldown_suppressed", "triggers", "stall_rate", "loss_rate",
            "occupancy_step_frac"),
    "ingest": ("polled_frames", "polled_bytes", "stalled_polls", "retries",
               "source_ended", "timed_out", "pending_depth",
               "truncated_tail_bytes", "rejected_records"),
    "admission": ("admitted_bytes", "admitted_frames",
                  "budget_refused_bytes", "budget_refused_frames",
                  "channel_shed_bytes", "channel_shed_frames",
                  "slot_refused_bytes", "slot_refused_frames",
                  "unserved_bytes", "unserved_frames", "floor_shed_bytes",
                  "ledger_conserves"),
    "report": ("offered_bytes", "offered_weight", "played_bytes",
               "dropped_server_bytes", "dropped_client_overflow_bytes",
               "dropped_client_late_bytes", "lost_link_bytes",
               "residual_bytes", "retransmitted_bytes", "stall_steps",
               "max_server_occupancy", "max_client_occupancy",
               "max_lateness", "weighted_loss", "conserves"),
}

STATS_COUNT_KEYS = ("accepted", "served_json", "served_metrics",
                    "served_series", "served_health", "unavailable",
                    "bad_requests", "not_found", "io_errors")


def check_stats_section(errors, section):
    """The optional endpoint-tally section (rtsmooth-stats-v1)."""
    if not isinstance(section, dict):
        errors.append("stats section is not an object")
        return
    if section.get("schema") != "rtsmooth-stats-v1":
        errors.append(f"stats schema must be 'rtsmooth-stats-v1', "
                      f"got {section.get('schema')!r}")
    missing = [k for k in ("socket_path", "running") + STATS_COUNT_KEYS
               if k not in section]
    if missing:
        errors.append(f"stats section lacks {missing}")
    if "socket_path" in section and not section["socket_path"]:
        errors.append("stats socket_path is empty")
    for key in STATS_COUNT_KEYS:
        value = section.get(key)
        if key in section and (not isinstance(value, int) or value < 0):
            errors.append(f"stats {key} must be a non-negative int, "
                          f"got {value!r}")


def _int_list(value):
    return isinstance(value, list) and all(isinstance(v, int) for v in value)


def check_delta_series(errors, label, series, slots, monotone=True):
    """One {base, deltas, total} column of a rtsmooth-series-v1 document.

    The conservation invariant base + sum(deltas) == total is structural:
    the timeline folds evicted slots into base, so any violation means the
    exporter dropped or double-counted a delta."""
    if not isinstance(series, dict):
        errors.append(f"series {label} is not an object")
        return
    missing = [k for k in ("base", "deltas", "total") if k not in series]
    if missing:
        errors.append(f"series {label} lacks {missing}")
        return
    base, deltas, total = series["base"], series["deltas"], series["total"]
    if not isinstance(base, int) or not isinstance(total, int) \
            or not _int_list(deltas):
        errors.append(f"series {label}: base/deltas/total must be ints")
        return
    if len(deltas) != slots:
        errors.append(f"series {label}: {len(deltas)} deltas for "
                      f"{slots} slots")
    if monotone and any(d < 0 for d in deltas):
        errors.append(f"series {label}: negative delta "
                      "(the underlying metric is monotone)")
    if base + sum(deltas) != total:
        errors.append(f"series {label}: base {base} + deltas "
                      f"{sum(deltas)} != total {total}")


def check_series_histogram(errors, name, hist, slots):
    if not isinstance(hist, dict):
        errors.append(f"series histogram {name!r} is not an object")
        return
    missing = [k for k in ("bounds", "count", "sum", "bucket_base",
                           "buckets") if k not in hist]
    if missing:
        errors.append(f"series histogram {name!r} lacks {missing}")
        return
    bounds = hist["bounds"]
    if not _int_list(bounds) or list(bounds) != sorted(set(bounds)):
        errors.append(f"series histogram {name!r}: bounds not strictly "
                      "increasing ints")
        return
    width = len(bounds) + 1
    check_delta_series(errors, f"histogram {name!r} count", hist["count"],
                       slots)
    # Sum deltas may be negative when samples are (weights are not).
    check_delta_series(errors, f"histogram {name!r} sum", hist["sum"],
                       slots, monotone=False)
    base = hist["bucket_base"]
    if not _int_list(base) or len(base) != width:
        errors.append(f"series histogram {name!r}: bucket_base must hold "
                      f"{width} ints")
        base = None
    rows = hist["buckets"]
    if not isinstance(rows, list) or len(rows) != slots:
        held = len(rows) if isinstance(rows, list) else "?"
        errors.append(f"series histogram {name!r}: {held} bucket rows "
                      f"for {slots} slots")
        return
    count = hist["count"] if isinstance(hist["count"], dict) else {}
    count_deltas = count.get("deltas")
    for i, row in enumerate(rows):
        if not _int_list(row) or len(row) != width:
            errors.append(f"series histogram {name!r}: bucket row {i} "
                          f"must hold {width} ints")
            return
        if any(v < 0 for v in row):
            errors.append(f"series histogram {name!r}: negative bucket "
                          f"delta in row {i}")
        # Every record lands its weight in exactly one bucket AND in
        # count, so per slot the bucket deltas must sum to the count
        # delta.
        if _int_list(count_deltas) and i < len(count_deltas) \
                and sum(row) != count_deltas[i]:
            errors.append(f"series histogram {name!r}: row {i} bucket "
                          f"deltas sum to {sum(row)}, count delta is "
                          f"{count_deltas[i]}")
    if base is not None and isinstance(count.get("base"), int) \
            and sum(base) != count["base"]:
        errors.append(f"series histogram {name!r}: bucket_base sums to "
                      f"{sum(base)}, count base is {count['base']}")


def check_series_burn(errors, burn):
    if not isinstance(burn, dict):
        errors.append("series burn is not an object")
        return
    missing = [k for k in ("short_slots", "long_slots", "budgets")
               if k not in burn]
    if missing:
        errors.append(f"series burn lacks {missing}")
        return
    short, long_ = burn["short_slots"], burn["long_slots"]
    if not isinstance(short, int) or short < 1:
        errors.append(f"series burn short_slots must be a positive int, "
                      f"got {short!r}")
    if not isinstance(long_, int) \
            or (isinstance(short, int) and long_ < short):
        errors.append(f"series burn long_slots {long_!r} must be >= "
                      f"short_slots {short!r}")
    budgets = burn["budgets"]
    if not isinstance(budgets, list):
        errors.append("series burn budgets is not a list")
        return
    for i, budget in enumerate(budgets):
        if not isinstance(budget, dict):
            errors.append(f"series burn budget {i} is not an object")
            continue
        label = budget.get("name", i)
        missing = [k for k in ("name", "budget", "threshold", "bad",
                               "total", "short_burn", "long_burn",
                               "firing", "alerts") if k not in budget]
        if missing:
            errors.append(f"series burn budget {label!r} lacks {missing}")
            continue
        fraction = budget["budget"]
        if not isinstance(fraction, (int, float)) or not 0 < fraction <= 1:
            errors.append(f"series burn budget {label!r}: budget fraction "
                          f"{fraction!r} outside (0, 1]")
        threshold = budget["threshold"]
        if not isinstance(threshold, (int, float)) or threshold <= 0:
            errors.append(f"series burn budget {label!r}: threshold "
                          f"{threshold!r} must be positive")
        for key in ("bad", "total"):
            names = budget[key]
            if not isinstance(names, list) or not names \
                    or not all(isinstance(n, str) for n in names):
                errors.append(f"series burn budget {label!r}: {key} must "
                              "be a non-empty list of counter names")
        for key in ("short_burn", "long_burn"):
            value = budget[key]
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"series burn budget {label!r}: {key} "
                              f"{value!r} must be non-negative")
        if not isinstance(budget["firing"], bool):
            errors.append(f"series burn budget {label!r}: firing must be "
                          "a bool")
        if not isinstance(budget["alerts"], int) or budget["alerts"] < 0:
            errors.append(f"series burn budget {label!r}: alerts must be "
                          "a non-negative int")


def check_series(errors, doc, registry=None):
    """The in-daemon timeline export (rtsmooth-series-v1, obs/timeline.h):
    delta-encoded counter/gauge/histogram history over a ring of
    fixed-cadence slots, plus SLO burn-rate windows. When the enclosing
    snapshot's registry is supplied, series totals may not exceed the
    live registry values — equality is only guaranteed in a terminal
    snapshot, where the daemon samples the timeline one last time right
    before serialising (a live document's registry can be ahead of the
    last sampling cadence)."""
    if not isinstance(doc, dict):
        errors.append("series section is not an object")
        return
    if doc.get("schema") != "rtsmooth-series-v1":
        errors.append(f"series schema must be 'rtsmooth-series-v1', "
                      f"got {doc.get('schema')!r}")
    missing = [k for k in ("slot_steps", "capacity", "slots", "evicted",
                           "slot_end_steps", "counters", "gauges",
                           "histograms", "burn") if k not in doc]
    if missing:
        errors.append(f"series lacks {missing}")
        return
    for key in ("slot_steps", "capacity"):
        value = doc.get(key)
        if not isinstance(value, int) or value < 1:
            errors.append(f"series {key} must be a positive int, "
                          f"got {value!r}")
    for key in ("slots", "evicted"):
        value = doc.get(key)
        if not isinstance(value, int) or value < 0:
            errors.append(f"series {key} must be a non-negative int, "
                          f"got {value!r}")
    ends = doc.get("slot_end_steps")
    if not _int_list(ends):
        errors.append("series slot_end_steps must be a list of ints")
        return
    if isinstance(doc.get("slots"), int) and len(ends) != doc["slots"]:
        errors.append(f"series slots {doc['slots']} != "
                      f"len(slot_end_steps) {len(ends)}")
    if isinstance(doc.get("capacity"), int) and len(ends) > doc["capacity"]:
        errors.append(f"series holds {len(ends)} slots, over its "
                      f"capacity {doc['capacity']}")
    for a, b in zip(ends, ends[1:]):
        if b <= a:
            errors.append(f"series slot_end_steps not strictly rising "
                          f"at {a} -> {b}")
            break
    nslots = len(ends)
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append("series counters is not an object")
        counters = {}
    for name, column in counters.items():
        check_delta_series(errors, f"counter {name!r}", column, nslots)
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        errors.append("series gauges is not an object")
        gauges = {}
    for name, values in gauges.items():
        if not _int_list(values):
            errors.append(f"series gauge {name!r} is not a list of ints")
            continue
        if len(values) != nslots:
            errors.append(f"series gauge {name!r}: {len(values)} values "
                          f"for {nslots} slots")
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"series gauge {name!r} decreases (gauges are "
                          "high-watermarks)")
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        errors.append("series histograms is not an object")
        hists = {}
    for name, hist in hists.items():
        check_series_histogram(errors, name, hist, nslots)
    check_series_burn(errors, doc.get("burn"))
    if isinstance(registry, dict):
        live = registry.get("counters", {})
        if isinstance(live, dict):
            for name, column in counters.items():
                if not isinstance(column, dict):
                    continue
                total, value = column.get("total"), live.get(name)
                if isinstance(total, int) and isinstance(value, int) \
                        and total > value:
                    errors.append(f"series counter {name!r} total {total} "
                                  f"exceeds registry value {value}")


def check_soak(errors, doc):
    missing = [k for k in ("daemon", "steps", "engine_steps", "stop_signal",
                           "reconfigs", "degradation", "slo", "ingest",
                           "admission", "report", "registry")
               if k not in doc]
    if missing:
        errors.append(f"missing top-level keys {missing}")
    for key in ("steps", "engine_steps", "stop_signal"):
        value = doc.get(key)
        if key in doc and (not isinstance(value, int) or value < 0):
            errors.append(f"{key} must be a non-negative int, got {value!r}")
    for section, keys in SOAK_SECTION_KEYS.items():
        body = doc.get(section)
        if section not in doc:
            continue
        if not isinstance(body, dict):
            errors.append(f"{section} is not an object")
            continue
        lacks = [k for k in keys if k not in body]
        if lacks:
            errors.append(f"{section} lacks {lacks}")
    slo = doc.get("slo", {})
    if isinstance(slo, dict):
        breaches = slo.get("breaches")
        if breaches is not None:
            if not isinstance(breaches, dict):
                errors.append("slo breaches is not an object")
            else:
                lacks = [k for k in ("stall", "loss", "occupancy", "burn")
                         if k not in breaches]
                if lacks:
                    errors.append(f"slo breaches lacks {lacks}")
        for key in ("stall_rate", "loss_rate", "occupancy_step_frac"):
            rate = slo.get(key)
            if isinstance(rate, (int, float)) and not 0 <= rate <= 1:
                errors.append(f"slo {key} {rate!r} outside [0, 1]")
    admission = doc.get("admission", {})
    if isinstance(admission, dict) \
            and admission.get("ledger_conserves") is False:
        errors.append("ingest ledger does not conserve "
                      "(frames were lost outside the admission accounts)")
    report = doc.get("report", {})
    if isinstance(report, dict):
        # Bytes in flight make a *live* document (periodic write or
        # endpoint scrape) legitimately non-conserving; only a terminal
        # snapshot — written after the shutdown drain — must balance.
        if report.get("conserves") is False and doc.get("stop_signal") != 0:
            errors.append("report does not conserve "
                          "(offered bytes != played + dropped + residual)")
        loss = report.get("weighted_loss")
        if isinstance(loss, (int, float)) and not 0 <= loss <= 1:
            errors.append(f"report weighted_loss {loss!r} outside [0, 1]")
        late = report.get("max_lateness")
        if "max_lateness" in report \
                and (not isinstance(late, int) or late < 0):
            errors.append(f"report max_lateness must be a non-negative "
                          f"int, got {late!r}")
        # Daemon frames are unit slices, so every late byte was delivered
        # after its playout step: late bytes imply a positive lateness, and
        # a positive lateness implies late bytes once their runs have
        # retired — in a live document a late byte's run may still owe
        # bytes, so that direction waits for a conserving report.
        late_bytes = report.get("dropped_client_late_bytes")
        if isinstance(late, int) and isinstance(late_bytes, int):
            if late_bytes > 0 and late <= 0:
                errors.append(f"report has {late_bytes} late bytes but "
                              f"max_lateness {late}")
            if late > 0 and late_bytes == 0 \
                    and report.get("conserves") is True:
                errors.append(f"report max_lateness is {late} but no "
                              f"byte was late")
    if "stats" in doc:
        check_stats_section(errors, doc["stats"])
    if "series" in doc:
        check_series(errors, doc["series"], doc.get("registry"))
    check_registry(errors, doc.get("registry", {}))


PROM_TYPES = ("counter", "gauge", "histogram")

PROM_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'          # metric name
    r'(\{[^{}]*\})?'                         # optional label set
    r' (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$')

PROM_LE_RE = re.compile(r'le="([^"]*)"')


def looks_like_prometheus(text):
    """True when the first non-blank line is exposition-format."""
    for line in text.splitlines():
        if not line.strip():
            continue
        return line.startswith("# TYPE ") or bool(PROM_SAMPLE_RE.match(line))
    return False


def check_prometheus(errors, text):
    """Lints Prometheus 0.0.4 text exposition as obs/prometheus.cpp emits
    it: TYPE-before-samples, rtsmooth_-prefixed names, and internally
    consistent cumulative histogram series."""
    types = {}          # metric name -> declared type
    sampled = set()     # metric names with at least one sample
    buckets = {}        # histogram name -> [(le, cumulative count)]
    counts = {}         # histogram name -> _count value
    sums = set()        # histogram names with a _sum sample
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "TYPE":
                errors.append(f"line {lineno}: unexpected comment {line!r} "
                              "(only '# TYPE <name> <type>' is emitted)")
                continue
            name, kind = parts[2], parts[3]
            if kind not in PROM_TYPES:
                errors.append(f"line {lineno}: unknown type {kind!r} "
                              f"for {name!r}")
            if not name.startswith("rtsmooth_"):
                errors.append(f"line {lineno}: metric {name!r} lacks the "
                              "rtsmooth_ prefix")
            if name in types:
                errors.append(f"line {lineno}: duplicate # TYPE for "
                              f"{name!r}")
            types[name] = kind
            continue
        m = PROM_SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, labels, value = m.groups()
        base, suffix = name, None
        for sfx in ("_bucket", "_sum", "_count"):
            if name.endswith(sfx) \
                    and types.get(name[:-len(sfx)]) == "histogram":
                base, suffix = name[:-len(sfx)], sfx
                break
        if base not in types:
            errors.append(f"line {lineno}: sample {name!r} precedes its "
                          "# TYPE declaration")
            continue
        kind = types[base]
        if kind == "histogram" and suffix is None:
            errors.append(f"line {lineno}: bare sample for histogram "
                          f"{base!r} (expected _bucket/_sum/_count)")
            continue
        if kind != "histogram" and labels:
            errors.append(f"line {lineno}: unexpected labels on {kind} "
                          f"{name!r}")
        sampled.add(base)
        if suffix == "_bucket":
            le = PROM_LE_RE.search(labels or "")
            if le is None:
                errors.append(f"line {lineno}: bucket of {base!r} without "
                              "an le label")
                continue
            bound = float("inf") if le.group(1) == "+Inf" \
                else float(le.group(1))
            buckets.setdefault(base, []).append((bound, float(value)))
        elif suffix == "_count":
            counts[base] = float(value)
        elif suffix == "_sum":
            sums.add(base)
    for name in types:
        if name not in sampled:
            errors.append(f"# TYPE {name} declared but never sampled")
    for name, kind in types.items():
        if kind != "histogram" or name not in sampled:
            continue
        series = buckets.get(name, [])
        bounds = [b for b, _ in series]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            errors.append(f"histogram {name}: le bounds not strictly "
                          "increasing")
        if not bounds or bounds[-1] != float("inf"):
            errors.append(f'histogram {name}: missing le="+Inf" bucket')
        cumulative = [c for _, c in series]
        if any(a > b for a, b in zip(cumulative, cumulative[1:])):
            errors.append(f"histogram {name}: bucket counts not cumulative")
        if name not in counts:
            errors.append(f"histogram {name}: missing _count sample")
        elif cumulative and cumulative[-1] != counts[name]:
            errors.append(f"histogram {name}: _count {counts[name]} != "
                          f'le="+Inf" bucket {cumulative[-1]}')
        if name not in sums:
            errors.append(f"histogram {name}: missing _sum sample")


def check_google_benchmark(errors, doc):
    if not doc.get("benchmarks"):
        errors.append("google-benchmark document has no benchmark entries")
        return
    for i, entry in enumerate(doc["benchmarks"]):
        if "name" not in entry:
            errors.append(f"benchmark entry {i} lacks a name")


def check_file(path):
    """Returns the list of violations in `path` (empty = valid)."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return [f"unreadable: {e}"]
    if not text.strip():
        return ["empty file"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        if looks_like_prometheus(text):
            check_prometheus(errors, text)
            return errors
        return [f"invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("schema") == "rtsmooth-bench-v1":
        check_rtsmooth(errors, doc)
    elif doc.get("schema") == "rtsmooth-incident-v1":
        check_incident(errors, doc)
    elif doc.get("schema") == "rtsmooth-soak-v1":
        check_soak(errors, doc)
    elif doc.get("schema") == "rtsmooth-series-v1":
        check_series(errors, doc)
    elif "benchmarks" in doc and "context" in doc:
        check_google_benchmark(errors, doc)
    else:
        errors.append("unrecognised schema (not rtsmooth-bench-v1, "
                      "rtsmooth-incident-v1, rtsmooth-soak-v1, "
                      "rtsmooth-series-v1, or google-benchmark output)")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            for reason in errors:
                print(f"FAIL {path}: {reason}", file=sys.stderr)
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

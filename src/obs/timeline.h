// In-daemon timeline: a fixed-capacity ring of periodic registry samples,
// delta-encoded, plus multi-window SLO burn-rate computation over named
// error budgets (DESIGN.md Sect. 16).
//
// The introspection plane (stats_server.h) exposes point-in-time snapshots;
// a scraper that misses a burst sees nothing. The timeline closes that gap
// *inside* the daemon: every `slot_steps` engine steps the sampler diffs
// the registry against the previous sample and appends one slot of
//
//   * counter deltas        (monotone, so a delta is the interval's traffic),
//   * gauge values          (high-watermark gauges — the running maximum),
//   * histogram bucket/count/sum deltas (the interval's distribution).
//
// When the ring is full the oldest slot folds into a per-metric `base`, so
// the invariant  base + sum(deltas) == total  holds at every instant and the
// emitted rtsmooth-series-v1 document is self-validating: the series always
// reconciles exactly against the terminal snapshot's registry section.
//
// Burn rates follow the multi-window SRE recipe: for each budget, the bad /
// total counter deltas are summed over a short and a long trailing window,
// fraction = bad/total, burn = fraction/budget, and the budget *fires* only
// when BOTH windows burn at >= threshold — the short window gives fast
// detection, the long window keeps one spike from paging. The daemon feeds
// each sample's BurnStatus to the Watchdog, which turns sustained burns
// into incidents (rate-limited like every other breach).
//
// Serialization: dump() writes the rtsmooth-series-v1 document straight
// from the counter, gauge and histogram columns into one string, through
// the same scalar appenders as obs::Json, so one publish costs about one
// pass over the ring's integers. The daemon renders it once per publish
// and splices the bytes into its snapshot (Json::raw).
//
// Determinism: metric columns live in lexicographic maps, timers are
// excluded, and every stored quantity derives from registry integers — the
// dumped document is byte-identical across RTSMOOTH_THREADS, pinned like
// the /json payload.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace rtsmooth::obs {

/// One SLO error budget tracked by the timeline. `bad` and `total` name
/// registry counters whose per-slot deltas are summed; the budget is the
/// fraction of `total` allowed to be `bad` (e.g. 0.01 = 1% of played bytes
/// may miss their deadline). Counters that do not exist (yet) contribute 0.
struct BurnBudget {
  std::string name;                ///< e.g. "deadline_miss"
  std::vector<std::string> bad;    ///< counter names, deltas summed
  std::vector<std::string> total;  ///< counter names, deltas summed
  double budget = 0.01;            ///< allowed bad/total fraction, (0, 1]
  double threshold = 1.0;          ///< fire when both windows burn >= this

  /// Empty string when valid, else what is wrong.
  std::string validate() const;
};

struct TimelineConfig {
  /// Sampling cadence in engine steps; 0 disables the timeline entirely
  /// (no ring, no sampler branch cost beyond one null check).
  std::int64_t slot_steps = 0;
  std::size_t capacity = 256;  ///< slots kept before eviction into base
  std::size_t short_slots = 6;   ///< short burn window (slots)
  std::size_t long_slots = 36;   ///< long burn window (slots, >= short)
  std::vector<BurnBudget> budgets;

  bool enabled() const { return slot_steps > 0; }
  /// Empty string when valid, else what is wrong.
  std::string validate() const;
};

/// Per-budget result of one sample: burn rates over both windows and
/// whether the budget is firing (both >= threshold).
struct BurnStatus {
  const BurnBudget* budget = nullptr;
  double short_burn = 0.0;
  double long_burn = 0.0;
  bool firing = false;
  std::int64_t alerts = 0;  ///< samples (ever) at which this budget fired
};

/// Rolling delta-encoded history of a Registry. Not thread-safe: owned and
/// sampled by the engine thread; scrapers see frozen dumps via the stats
/// server's epoch-swap publication, never this object.
class Timeline {
 public:
  /// Throws std::invalid_argument when the config does not validate.
  explicit Timeline(TimelineConfig config);

  const TimelineConfig& config() const { return config_; }

  /// Diffs `registry` against the previous sample and appends one slot
  /// ending at step `t` (evicting the oldest into base when full), then
  /// recomputes burn rates. Returns the per-budget status, one entry per
  /// configured budget, in configuration order.
  const std::vector<BurnStatus>& sample(std::int64_t t,
                                        const Registry& registry);

  std::size_t slots() const { return slot_end_steps_.size(); }
  std::int64_t evicted() const { return evicted_; }
  const std::vector<BurnStatus>& burn() const { return burn_; }

  /// The rtsmooth-series-v1 document (see DESIGN.md Sect. 16 for the full
  /// schema), written straight from the columns into one string with
  /// Json's scalar appenders; no tree is built. Deterministic:
  /// lexicographic metric order, timers excluded.
  std::string dump() const;

 private:
  struct CounterSeries {
    std::int64_t prev = 0;  ///< registry value at the last sample
    std::int64_t base = 0;  ///< value accounted by evicted slots
    std::vector<std::int64_t> deltas;  ///< one per live slot
  };
  struct GaugeSeries {
    std::vector<std::int64_t> values;  ///< gauge value at each sample
  };
  struct HistogramSeries {
    std::vector<std::int64_t> bounds;
    std::vector<std::int64_t> prev_counts;  ///< per-bucket, at last sample
    std::int64_t prev_count = 0;
    std::int64_t prev_sum = 0;
    std::vector<std::int64_t> base_counts;  ///< evicted per-bucket weight
    std::int64_t base_count = 0;
    std::int64_t base_sum = 0;
    std::vector<std::vector<std::int64_t>> bucket_deltas;  ///< [slot][bucket]
    std::vector<std::int64_t> count_deltas;
    std::vector<std::int64_t> sum_deltas;
  };

  void evict_oldest();
  /// Sum of the last `window` slots' deltas for the named counters.
  std::int64_t window_sum(const std::vector<std::string>& names,
                          std::size_t window) const;
  void recompute_burn();

  TimelineConfig config_;
  std::vector<std::int64_t> slot_end_steps_;
  std::map<std::string, CounterSeries, std::less<>> counters_;
  std::map<std::string, GaugeSeries, std::less<>> gauges_;
  std::map<std::string, HistogramSeries, std::less<>> histograms_;
  std::vector<BurnStatus> burn_;
  std::int64_t evicted_ = 0;
};

}  // namespace rtsmooth::obs

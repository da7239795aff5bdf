// Telemetry layer: named counters, high-watermark gauges and fixed-bucket
// histograms in a Registry, plus RAII Span timers and a nullable Telemetry
// handle the instrumented code paths branch on.
//
// Contracts the rest of the repo relies on (DESIGN.md "Telemetry"):
//
//   * Null handle is free. Every instrumentation site guards on
//     `telemetry.enabled()` (or a cached pointer); with the default
//     Telemetry{} the added cost is one predictable branch — micro_obs
//     pins the end-to-end simulation within noise of the uninstrumented
//     baseline.
//   * Deterministic merge. Registry::merge() folds another registry in:
//     counters add, gauges take the max, histograms add bucket-by-bucket
//     (bounds must match — same instrumentation site, same spec). sweep()
//     gives every grid cell its own registry and merges them in submission
//     order, so `threads=N` snapshots are byte-identical to serial.
//   * Timers are quarantined. Span durations land in a separate timer
//     section of the registry; `to_json(/*include_timers=*/false)` is the
//     deterministic snapshot, timers are wall-clock noise by nature.
//   * A record costs a pointer and a little arithmetic. Sites resolve
//     their instruments once and keep the pointers; Histogram::record()
//     finds its bucket with one table lookup by the value's bit width
//     (exact on the first probe for the exponential specs every hot path
//     uses), and a Span holds its timer pre-resolved.
//
// Metric names are dotted strings owned by the instrumentation sites
// (e.g. "server.occupancy", "byte.sojourn_steps", "client.stall_run_length",
// "drop.burst_length", "link.loss_run" in erased pieces,
// "link.bad_burst_steps" in steps); one name holds one unit, and the
// registry orders them lexicographically in snapshots.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace rtsmooth::obs {

class FlightRecorder;
class TraceWriter;

/// Monotone event count. Merge: sum.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }
  bool operator==(const Counter&) const = default;

 private:
  std::int64_t value_ = 0;
};

/// High-watermark gauge: update() keeps the maximum ever seen. Merge: max.
/// (A last-writer gauge would make merged snapshots depend on thread
/// scheduling; the paper's quantities of interest — peak occupancy, peak
/// backlog — are maxima anyway.)
class Gauge {
 public:
  void update(std::int64_t value) { value_ = std::max(value_, value); }
  std::int64_t value() const { return value_; }
  bool operator==(const Gauge&) const = default;

 private:
  std::int64_t value_ = std::numeric_limits<std::int64_t>::min();
};

/// Fixed inclusive upper bounds of a histogram's buckets, strictly
/// increasing. Values above the last bound land in an implicit overflow
/// bucket.
struct HistogramSpec {
  std::vector<std::int64_t> bounds;

  /// Bounds first, 2*first, 4*first, ... (`buckets` of them) — the default
  /// shape for durations and run lengths, where tails span decades.
  static HistogramSpec exponential(std::int64_t first, std::size_t buckets);
  /// Bounds width, 2*width, ..., buckets*width.
  static HistogramSpec linear(std::int64_t width, std::size_t buckets);

  bool operator==(const HistogramSpec&) const = default;
};

/// Fixed-bucket histogram over int64 samples with integer weights (a
/// byte-weighted sample is record(value, bytes)). Tracks exact count, sum,
/// min and max alongside the bucket counts, so bound checks (Lemma 3.2:
/// max sojourn <= ceil(B/R)) need no bucket interpolation.
class Histogram {
 public:
  /// Fewer than 255 buckets, overflow included, so a bucket index fits a
  /// byte of the lookup table.
  explicit Histogram(HistogramSpec spec);

  /// Weight 0 is a no-op; a negative weight throws std::invalid_argument
  /// (an un-count would silently corrupt every downstream sum).
  void record(std::int64_t value, std::int64_t weight = 1);

  std::int64_t count() const { return count_; }  ///< total recorded weight
  std::int64_t sum() const { return sum_; }      ///< sum of value * weight
  /// Smallest / largest recorded value; 0 when empty.
  std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const;

  const std::vector<std::int64_t>& bounds() const { return spec_.bounds; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::int64_t>& counts() const { return counts_; }

  /// Adds `other` bucket-by-bucket. Bounds must match exactly — merged
  /// histograms come from the same instrumentation site; a mismatch throws
  /// std::invalid_argument.
  void merge(const Histogram& other);

  Json to_json() const;

  bool operator==(const Histogram&) const = default;

 private:
  HistogramSpec spec_;
  /// first_[k] is the bucket of the smallest v >= 1 with
  /// std::bit_width(v - 1) == k: the lower_bound of 2^(k-1) + 1 (of 1 for
  /// k = 0), one entry per bit width of a uint64. record() scans forward
  /// from there, which equals std::lower_bound for any increasing bounds.
  std::array<std::uint8_t, 65> first_{};
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Named metrics, ordered lexicographically in snapshots. Not thread-safe:
/// one registry per thread of execution (sweep() makes one per cell), merged
/// afterwards.
class Registry {
 public:
  /// Fetch-or-create. The spec only matters on first use; later lookups of
  /// the same name return the existing instrument unchanged.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, const HistogramSpec& spec);
  /// Span durations in microseconds (exponential 1us..~1e6us buckets), kept
  /// in the separate timer section — excluded from deterministic snapshots.
  Histogram& timer(std::string_view name);

  /// Deterministic fold: counters add, gauges max, histograms bucket-add,
  /// timers bucket-add. Call in a fixed order (submission order) for
  /// thread-count-independent results.
  void merge(const Registry& other);

  bool empty() const;

  /// Snapshot: {"counters":{...},"gauges":{...},"histograms":{...}} plus a
  /// "timers" section when included. The timer-free snapshot is the
  /// determinism unit of account.
  Json to_json(bool include_timers = true) const;

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, Histogram, std::less<>>& timers() const {
    return timers_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Histogram, std::less<>> timers_;
};

/// The nullable handle threaded through SimConfig / SweepSpec. Three raw
/// pointers, default all null; copying is free and the pointees must
/// outlive every component holding the handle.
struct Telemetry {
  Registry* registry = nullptr;
  TraceWriter* tracer = nullptr;
  /// Flight recorder (obs/flight_recorder.h): per-step ring + incident
  /// capture on invariant violations. Same null-handle contract.
  FlightRecorder* recorder = nullptr;

  bool enabled() const {
    return registry != nullptr || tracer != nullptr || recorder != nullptr;
  }
  explicit operator bool() const { return enabled(); }
};

/// RAII wall-clock timer: records the scope's duration (microseconds) into
/// a timer on destruction. A null timer disables the span: it takes no
/// clock reading, and its destructor is one test. Hot sites resolve the
/// timer once and pass it (or null, to skip a sample) per scope.
class Span {
 public:
  explicit Span(Histogram* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  /// Resolves `telemetry.registry->timer(name)` once, here; a null
  /// registry gives a disabled span.
  Span(const Telemetry& telemetry, std::string_view name)
      : Span(telemetry.registry != nullptr ? &telemetry.registry->timer(name)
                                           : nullptr) {}
  ~Span() {
    if (timer_ != nullptr) stop();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void stop();  ///< records the elapsed microseconds into timer_

  Histogram* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rtsmooth::obs

// The statistical-multiplexing gateway: one shared link of rate R stepped
// over N concurrent streams, each its own paper-style smoothing
// configuration (buffer B_i = r_i * D_i, Theorem 3.5) riding the common
// link under a weighted sharing policy.
//
// Per step t, mirroring the generic server algorithm (Eqs. (2), (3))
// per stream:
//
//   1. arrivals:  backlog_i += A_i(t)          (stateless arrival models)
//   2. allocate:  the SharePolicy divides R across classes and streams
//                 against demand_i = backlog_i
//   3. serve:     backlog_i -= alloc_i                        (Eq. (2))
//   4. drop:      shed max(0, backlog_i - B_i) per stream     (Eq. (3))
//
// Phases 1 and 3–4 run shard-parallel on a ParallelRunner; phase 2 is a
// serial reduce over per-shard class demands. Shard count is a config
// parameter independent of thread count, per-shard results fold in shard
// order, so output is byte-identical for any pool width (DESIGN.md
// Sect. 9/14).
//
// Churn is first-class: streams join and leave mid-run, and the ledger
// invariant `admitted == served + dropped + unserved + backlog` holds per
// stream and in aggregate at every step — like the daemon's ingest ledger.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gateway/sharing.h"
#include "gateway/stream_pool.h"
#include "obs/telemetry.h"
#include "sim/runner.h"

namespace rtsmooth::gateway {

/// Whether a join request is admitted.
enum class AdmissionPolicy {
  AcceptAll,      ///< every valid spec joins
  CapacityCheck,  ///< join only while sum(r_i) + r <= overbook * R
};

struct GatewayConfig {
  Bytes rate = 1;  ///< R: shared link bytes per step
  /// One weight per service class, all > 0 (e.g. {12, 8, 1} mirroring the
  /// paper's I:P:B values). Streams name a class by index.
  std::vector<double> class_weights = {1.0};
  SharePolicy sharing = SharePolicy::WeightedShare;
  AdmissionPolicy admission = AdmissionPolicy::AcceptAll;
  /// CapacityCheck headroom: admit while sum(r_i) <= overbook * R.
  /// Statistical multiplexing is the whole point, so > 1 is the norm.
  double overbook = 1.0;
  /// Fixed shard count — the unit of parallel work AND of deterministic
  /// fold order. Never derived from the thread count.
  std::size_t shards = 8;
  /// ParallelRunner width: 0 = RTSMOOTH_THREADS / hardware, 1 = serial.
  unsigned threads = 0;
  /// Null by default (free). With a registry the gateway keeps gateway.*
  /// counters/gauges/histograms; with a flight recorder every step lands in
  /// the ring and conservation/oversend violations freeze incidents.
  obs::Telemetry telemetry{};

  /// First problem with the config, or empty when runnable.
  std::string validate() const;
};

/// Per-class slice of the gateway ledger.
struct ClassTotals {
  Bytes admitted = 0;
  Bytes served = 0;
  Bytes dropped = 0;
  Bytes unserved = 0;
  Bytes on_time = 0;      ///< served within the stream's deadline D_i
  Bytes late = 0;         ///< served after D_i expired
  Time max_lateness = 0;  ///< peak (wait - D_i) over the class's late bytes

  ClassTotals& operator+=(const ClassTotals& o) {
    admitted += o.admitted;
    served += o.served;
    dropped += o.dropped;
    unserved += o.unserved;
    on_time += o.on_time;
    late += o.late;
    max_lateness = std::max(max_lateness, o.max_lateness);
    return *this;
  }
  bool operator==(const ClassTotals&) const = default;
};

/// Aggregate report of a gateway run (live + departed streams).
struct GatewayReport {
  Bytes admitted = 0;
  Bytes served = 0;
  Bytes dropped = 0;
  Bytes unserved = 0;  ///< written off at stream departure
  Bytes backlog = 0;   ///< still buffered across live streams
  Bytes served_on_time = 0;  ///< served bytes that waited <= their D_i
  Bytes served_late = 0;     ///< served bytes that missed their deadline
  Time max_lateness = 0;     ///< peak (wait - D_i) over all late bytes
  std::vector<ClassTotals> by_class;

  Time steps = 0;
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t rejected_joins = 0;
  Bytes max_backlog = 0;      ///< peak total backlog after any step
  Bytes max_step_served = 0;  ///< peak link usage in one step (<= R)
  std::int64_t violations = 0;  ///< conservation / oversend check failures

  /// admitted == served + dropped + unserved + backlog AND
  /// served == served_on_time + served_late, here and per class.
  bool conserves() const;
  /// Weight-scaled loss fraction: lost = dropped + unserved, weighted by
  /// the class weights the report was built with.
  double weighted_loss(const std::vector<double>& class_weights) const;
  /// Unweighted byte loss fraction.
  double byte_loss() const;

  bool operator==(const GatewayReport&) const = default;
};

class Gateway {
 public:
  /// Throws std::invalid_argument with the validate() message on a bad
  /// config.
  explicit Gateway(GatewayConfig config);
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Admission-checked join. Throws std::invalid_argument on a malformed
  /// spec; returns nullopt (and counts a rejected join) when the admission
  /// policy refuses. The stream starts arriving on the NEXT step.
  std::optional<StreamId> add_stream(const StreamSpec& spec);

  /// Removes a live stream, writing its backlog off as unserved in the
  /// ledger, and returns its final row. nullopt for unknown ids.
  std::optional<StreamStats> remove_stream(StreamId id);

  /// Advances the shared link one step over all live streams.
  void step();
  /// step() `n` times.
  void run(Time n);

  Time now() const { return now_; }
  std::size_t stream_count() const { return pool_.size(); }
  Bytes subscribed_rate() const { return pool_.subscribed_rate(); }
  /// Live ledger row for one stream / all live streams in deterministic
  /// (shard, slot) order.
  std::optional<StreamStats> stream_stats(StreamId id) const {
    return pool_.stats(id);
  }
  std::vector<StreamStats> all_stream_stats() const {
    return pool_.all_stats();
  }

  /// Aggregate ledger: departed streams' totals plus everything live.
  GatewayReport report() const;

  const GatewayConfig& config() const { return config_; }
  /// Batch timing accumulated over the parallel phases.
  const sim::RunStats& run_stats() const { return run_stats_; }

 private:
  /// One lateness observation collected shard-locally during the parallel
  /// phase and drained into the registry histograms serially in
  /// fold_step() (fixed shard order — merged snapshots stay byte-identical
  /// for any thread count). `steps` is slack for on-time bytes and
  /// lateness for late ones.
  struct LatenessSample {
    std::uint32_t klass = 0;
    Time steps = 0;
    Bytes bytes = 0;
    bool late = false;
  };

  /// Per-shard per-step scratch each shard task owns exclusively.
  struct ShardScratch {
    std::vector<Bytes> class_demand;  ///< per class, this shard
    std::vector<Bytes> class_budget;  ///< per class, granted to this shard
    std::vector<Bytes> class_used;    ///< per class, floors granted so far
    std::vector<Bytes> class_dropped; ///< per class, this step's Eq. (3) shed
    Bytes step_admitted = 0;
    Bytes step_served = 0;
    Bytes step_dropped = 0;
    Bytes step_on_time = 0;
    Bytes step_late = 0;
    Time step_max_late = 0;
    Bytes backlog_total = 0;
    std::vector<LatenessSample> samples;  ///< registry-enabled runs only
  };

  /// One task per shard, built once: a dispatch allocates nothing.
  using ShardTasks = std::vector<std::function<void()>>;

  void arrive_and_demand(std::size_t s);
  void allocate_budgets();
  void serve_and_drop(std::size_t s);
  void serve_uncontended(std::size_t s);
  void settle_cohorts(Shard& sh, ShardScratch& sc, std::size_t i, Bytes send,
                      Bytes drop);
  void for_each_shard(const ShardTasks& tasks);
  void fold_step();

  GatewayConfig config_;
  StreamPool pool_;
  sim::ParallelRunner runner_;
  sim::RunStats run_stats_;
  // Per-shard phase tasks; they capture `this`, so a Gateway never moves.
  ShardTasks arrive_tasks_;
  ShardTasks serve_tasks_;
  ShardTasks uncontended_tasks_;
  std::vector<ShardScratch> scratch_;
  // Serial-phase scratch (class water-fill + shard apportionment).
  std::vector<Bytes> class_demand_;
  std::vector<Bytes> class_budget_;
  std::vector<Bytes> shard_demand_;
  std::vector<Bytes> shard_budget_;
  std::vector<std::size_t> class_order_;  ///< priority order (weight desc)

  Time now_ = 0;
  GatewayReport totals_;  ///< departed + cumulative step tallies

  // Cached telemetry instruments (resolved once; null registry = all null).
  obs::Counter* ctr_admitted_ = nullptr;
  obs::Counter* ctr_served_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::Counter* ctr_unserved_ = nullptr;
  obs::Counter* ctr_joins_ = nullptr;
  obs::Counter* ctr_leaves_ = nullptr;
  obs::Counter* ctr_rejected_ = nullptr;
  obs::Counter* ctr_violations_ = nullptr;
  obs::Counter* ctr_on_time_ = nullptr;
  obs::Counter* ctr_late_ = nullptr;
  obs::Gauge* gauge_backlog_ = nullptr;
  obs::Gauge* gauge_max_lateness_ = nullptr;
  obs::Histogram* hist_step_served_ = nullptr;
  obs::Histogram* hist_slack_ = nullptr;
  obs::Histogram* hist_lateness_ = nullptr;
  std::vector<obs::Histogram*> hist_class_lateness_;  ///< one per class
  // Per-class byte counters ("gateway.cK.*"), folded serially in fixed
  // shard order each step so the timeline can track per-class lateness
  // and shed series deterministically.
  std::vector<obs::Counter*> ctr_class_on_time_;
  std::vector<obs::Counter*> ctr_class_late_;
  std::vector<obs::Counter*> ctr_class_shed_;
};

}  // namespace rtsmooth::gateway

// rtsmoothd: the long-running serving daemon (DESIGN.md Sect. 13).
//
// One Daemon owns a FrameSource, a LiveEngine, a Watchdog, a
// DegradationLadder, a Registry and a FlightRecorder, and runs the serving
// loop: poll (with retry/backoff on ingest stalls) -> ladder-filter ->
// engine step -> watchdog -> ladder update. It supports:
//
//   * graceful reconfiguration — schedule_reconfig(at, plan) drains the
//     current engine to quiescence (bounded by a drain ceiling), validates
//     the new plan, logs which Sect. 3.3 resource-waste case a mismatched
//     B != R*D plan lands in, and rebuilds the engine. Frames polled while
//     draining are deferred in ingest order and replayed into the new
//     engine at up to two groups per step, so a reconfig never reorders or
//     drops ingest and the deferral backlog decays right after the drain.
//   * overload degradation — the ladder's rungs map to admission control,
//     value-floor shedding, and whole-channel shedding at ingest.
//   * clean shutdown — request_stop() (the installed SIGTERM/SIGINT
//     handlers call it) finishes the current step, drains in-flight pieces,
//     folds everything into the final report, writes the rtsmooth-soak-v1
//     snapshot plus every captured incident, and serve() returns 0.
//   * live introspection — with stats_socket_path set, the daemon runs an
//     obs::StatsServer on a unix socket serving the same rtsmooth-soak-v1
//     document as /json and the registry as Prometheus text on /metrics.
//     The payload is rebuilt at publish cadence (startup, every
//     stats_publish_every steps, SIGHUP, shutdown) and swapped in under a
//     mutex held for one pointer swap, so scrapers never touch the serving
//     loop. Every publish, to the snapshot file, the endpoint or both,
//     renders the timeline's series once straight from its ring, splices
//     those bytes into the snapshot, and hands the same strings to each
//     sink, so the shutdown /json answer equals the shutdown snapshot file
//     byte for byte. SIGHUP (request_snapshot()) forces a snapshot write
//     plus a publish at the next step boundary without stopping.
//
// The daemon-level ledger extends the engine's conservation invariant to
// ingest: polled == admitted + budget_refused + slot_refused +
// channel_shed + unserved (deferred frames a shutdown never admitted).
// Every tally that has a registry counter (the byte tallies, stalled polls,
// retries, slot-refused frames, applied and rejected reconfigurations) lives
// only in the registry; frame counts without a counter are members.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "daemon/degradation.h"
#include "daemon/frame_source.h"
#include "daemon/live_engine.h"
#include "daemon/watchdog.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "util/ring_buffer.h"

namespace rtsmooth::daemon {

/// Sect. 3.3's case analysis of a provisioning (B_s, B_c, R, D) against the
/// balanced point B = R*D, reported when a reconfiguration lands off it.
enum class PlanCase {
  Balanced,             ///< B_s == B_c == R*D: client-transparent (Thm. 3.5)
  ServerBufferDeficit,  ///< B_s < R*D: forced server drops under full load
  ServerBufferExcess,   ///< B_s > R*D: buffer the delay budget cannot use
  ClientBufferDeficit,  ///< B_c < R*D: client evictions under full load
  ClientBufferExcess,   ///< B_c > R*D: client buffer that never fills
  BufferMismatch,       ///< B_s != B_c: the smaller bound dominates
};

const char* to_string(PlanCase c);

/// Appends every applicable case (Balanced alone when the plan is balanced).
void classify_plan(const EngineConfig& config, std::vector<PlanCase>& out);

/// A reconfiguration target: the full new provisioning. An empty policy
/// keeps the current one.
struct EnginePlan {
  Bytes server_buffer = 1;
  Bytes client_buffer = 1;
  Bytes rate = 1;
  Time smoothing_delay = 1;
  Time link_delay = 1;
  std::string policy;
};

/// Retry/backoff policy for ingest stalls (PollStatus::Stalled). Within one
/// serving step the source is re-polled up to `max_retries` times with
/// exponentially growing sleeps; a step that stays empty is served anyway
/// (the stream pauses, the pipeline keeps draining). `stall_timeout_steps`
/// consecutive fully-stalled steps declare the source dead (treated as
/// End); 0 waits forever.
struct IngestConfig {
  std::int32_t max_retries = 3;
  std::int64_t retry_sleep_us = 100;
  std::int64_t retry_sleep_max_us = 10000;
  Time stall_timeout_steps = 0;
};

struct DaemonOptions {
  EngineConfig engine;
  IngestConfig ingest;
  SloConfig slo;
  LadderConfig ladder;
  obs::FlightRecorderConfig recorder{};
  /// Serving steps before a natural stop; 0 = until the source ends or
  /// request_stop().
  Time max_steps = 0;
  /// Drain ceiling per reconfiguration or shutdown; steps beyond it move
  /// what is still owed to residual (LiveEngine::abort_residual). 0 derives
  /// a generous default from the provisioning.
  Time max_drain_steps = 0;
  /// Write the snapshot every N steps (atomically, tmp+rename); 0 = only at
  /// shutdown.
  Time snapshot_every = 0;
  std::string snapshot_path;  ///< empty = no snapshot file
  std::string incident_dir;   ///< empty = keep incidents in memory only
  /// Unix-socket live stats endpoint (DESIGN.md Sect. 15); empty = none.
  /// The Daemon ctor validates the path (throws std::invalid_argument);
  /// serve() binds it and the endpoint stays up — serving the final,
  /// file-identical snapshot — until the Daemon is destroyed.
  std::string stats_socket_path;
  /// Republish the endpoint payload every N serving steps; 0 publishes
  /// only at startup, on SIGHUP, and at shutdown.
  Time stats_publish_every = 0;
  /// Rolling registry timeline (DESIGN.md Sect. 16): with
  /// timeline.slot_steps > 0 the daemon samples the registry every
  /// slot_steps serving steps, feeds burn-rate verdicts to the watchdog,
  /// serves the rtsmooth-series-v1 document on /series, and embeds the
  /// final timeline in the terminal snapshot. Disabled (the default) the
  /// serving loop pays one null check per step and nothing else.
  obs::TimelineConfig timeline;
  std::ostream* log = nullptr;  ///< reconfig/SLO event log; null = silent
};

/// The stock burn budgets over the daemon's own counters: `stall`
/// (degraded playouts / playouts, 5%), `deadline_miss` (late bytes /
/// delivered bytes, 1%) and `shed` (refused + shed bytes / polled bytes,
/// 5%). The defaults soak_driver installs with --series-every; callers can
/// append or replace freely.
std::vector<obs::BurnBudget> default_slo_budgets();

class Daemon {
 public:
  using LinkFactory =
      std::function<std::unique_ptr<Link>(const EngineConfig&)>;

  /// `link_factory` builds the link for every engine (initial and after
  /// each reconfiguration); null uses the lossless default. Throws
  /// std::invalid_argument on an invalid initial engine config.
  Daemon(DaemonOptions options, std::unique_ptr<FrameSource> source,
         LinkFactory link_factory = {});

  /// Runs the serving loop until max_steps, source end, or request_stop();
  /// then drains, writes outputs, and returns 0. Returns 1 only if the
  /// final ledger fails to conserve (an accounting bug, never load).
  int serve();

  /// Async-signal-safe stop request; the loop notices at the next step
  /// boundary. install_signal_handlers() routes SIGTERM/SIGINT here.
  void request_stop(int signum) {
    stop_signal_.store(signum, std::memory_order_relaxed);
  }
  int stop_signal() const {
    return stop_signal_.load(std::memory_order_relaxed);
  }

  /// Async-signal-safe "snapshot now" request (the installed SIGHUP
  /// handler calls it): at the next step boundary the loop writes the
  /// snapshot file and republishes the stats endpoint, then keeps serving.
  void request_snapshot() {
    hup_requested_.store(true, std::memory_order_relaxed);
  }

  /// Schedules a drain-and-replan at global step `at_step` (requests are
  /// served in time order; one at a time — a request due while another
  /// drain is in progress waits for it).
  void schedule_reconfig(Time at_step, EnginePlan plan);

  /// Cycles through `plans` forever, one drain-and-replan every `every`
  /// serving steps — the endless-soak counterpart of schedule_reconfig,
  /// which needs a horizon to enumerate against. The next cycle fires
  /// `every` steps after the previous one *began* (drains do not compress
  /// the period). Throws std::invalid_argument on every < 1 / empty plans.
  void schedule_reconfig_cycle(Time every, std::vector<EnginePlan> plans);

  // -- observers (valid during and after serve()) --------------------------
  Time steps() const { return steps_; }
  const LiveEngine& engine() const { return *engine_; }
  const obs::Registry& registry() const { return registry_; }
  const obs::FlightRecorder& recorder() const { return recorder_; }
  const Watchdog& watchdog() const { return watchdog_; }
  const DegradationLadder& ladder() const { return ladder_; }
  /// Cumulative report over every engine epoch plus the live one.
  SimReport total_report() const;
  /// The rtsmooth-soak-v1 document (also what snapshot_path receives) as a
  /// navigable tree; its dump() plus a newline is what a publish at the
  /// same moment writes.
  obs::Json snapshot() const;
  /// The stats endpoint, or null when stats_socket_path is empty. Running
  /// from serve() until the Daemon is destroyed.
  const obs::StatsServer* stats_server() const { return stats_.get(); }
  /// The rolling timeline, or null when options.timeline is disabled.
  const obs::Timeline* timeline() const { return timeline_.get(); }

  std::int64_t reconfigs_applied() const;
  std::int64_t reconfigs_rejected() const;
  std::int64_t incidents_written() const { return incidents_written_; }
  std::int64_t polled_frames() const { return polled_frames_; }
  Bytes polled_bytes() const { return ctr_polled_bytes_->value(); }

  /// polled == admitted + budget_refused + slot_refused + channel_shed +
  /// unserved, in bytes.
  bool ingest_ledger_conserves() const;

 private:
  struct Group {
    Time orig = 0;  ///< global step the frames were polled at
    std::vector<IngestFrame> frames;
  };
  struct ReconfigRequest {
    Time at_step = 0;
    EnginePlan plan;
  };
  struct ChannelStats {
    Bytes offered_bytes = 0;
    double offered_weight = 0.0;
    std::int64_t frames = 0;
  };

  std::unique_ptr<LiveEngine> make_engine(const EngineConfig& config);
  Time drain_ceiling() const;
  void poll_frames();
  void serve_step();
  void drain_step();
  void begin_reconfig();
  void finish_reconfig();
  void apply_ladder(Group& group);
  void apply_admission_budget();
  void observe(const StepStats& stats);
  /// The drain ceiling fired after `drained` steps: moves what the engine
  /// still owes to residual, flags forced_residual and logs it.
  void write_off_residual(const char* drain, Time drained);
  void shutdown_drain();
  void write_outputs();
  /// Samples the timeline at step `steps_` and feeds each budget's burn
  /// verdict to the watchdog. No-op without a timeline.
  void sample_timeline();
  /// The rtsmooth-soak-v1 document around an already built `series`: a
  /// parsed tree, a raw fragment, or null without a timeline.
  obs::Json snapshot(obs::Json series) const;
  /// Renders the series once, splices those bytes into the snapshot, and
  /// hands the same strings to the snapshot file (when `to_file` and a
  /// path is set) and to the endpoint's /json and /series (when
  /// `to_endpoint` and it runs).
  void publish(bool to_file, bool to_endpoint);
  void write_snapshot(const std::string& text) const;
  std::vector<IngestFrame> take_group_buffer();
  void recycle_group_buffer(std::vector<IngestFrame> buf);
  EngineConfig plan_config(const EnginePlan& plan) const;

  DaemonOptions options_;
  std::unique_ptr<FrameSource> source_;
  LinkFactory link_factory_;
  obs::Registry registry_;
  obs::FlightRecorder recorder_;
  std::unique_ptr<LiveEngine> engine_;
  Watchdog watchdog_;
  DegradationLadder ladder_;
  std::unique_ptr<obs::StatsServer> stats_;
  std::unique_ptr<obs::Timeline> timeline_;
  std::atomic<int> stop_signal_{0};
  std::atomic<bool> hup_requested_{false};

  Time steps_ = 0;       ///< global serving steps completed
  Time epoch_base_ = 0;  ///< global step mapped to the engine's local 0
  bool served_ = false;
  bool source_ended_ = false;
  bool ingest_timed_out_ = false;
  bool draining_ = false;
  bool forced_residual_ = false;
  EnginePlan pending_plan_;
  Time current_drain_steps_ = 0;
  std::deque<ReconfigRequest> reconfig_queue_;
  Time cycle_every_ = 0;  ///< 0 = no cycling program installed
  Time cycle_next_ = 0;
  std::size_t cycle_index_ = 0;
  std::vector<EnginePlan> cycle_plans_;
  /// Deferred ingest groups (ring, not deque: a deque's block allocator
  /// churns the heap every few steps of steady-state push/pop, which the
  /// soak alloc guard forbids).
  RingBuffer<Group> pending_;
  std::vector<std::vector<IngestFrame>> group_pool_;
  std::vector<IngestFrame> admit_buf_;
  std::vector<PlanCase> cases_buf_;
  std::vector<ChannelStats> channel_stats_;
  std::vector<std::int32_t> shed_rank_;  ///< channels by ascending mean value
  std::int32_t shed_count_ = 0;

  // Ingest + ladder ledger: the tallies no registry counter holds.
  std::int64_t polled_frames_ = 0;
  Time consecutive_stalled_ = 0;
  Bytes admitted_bytes_ = 0;
  std::int64_t admitted_frames_ = 0;
  std::int64_t budget_refused_frames_ = 0;
  std::int64_t channel_shed_frames_ = 0;
  Bytes unserved_bytes_ = 0;
  std::int64_t unserved_frames_ = 0;

  // The rest of the ledger and the ingest-health tallies, as registry
  // counters resolved once at construction: they exist (at zero) in every
  // registry snapshot, the timeline delta-diffs them for the burn budgets,
  // and the serving loop never does a name lookup.
  obs::Counter* ctr_polled_bytes_ = nullptr;
  obs::Counter* ctr_stalled_polls_ = nullptr;
  obs::Counter* ctr_ingest_retries_ = nullptr;
  obs::Counter* ctr_budget_refused_bytes_ = nullptr;
  obs::Counter* ctr_channel_shed_bytes_ = nullptr;
  obs::Counter* ctr_slot_refused_bytes_ = nullptr;
  obs::Counter* ctr_slot_refused_frames_ = nullptr;  ///< LiveEngine counts it
  obs::Counter* ctr_floor_shed_bytes_ = nullptr;
  obs::Counter* ctr_playouts_ = nullptr;
  obs::Counter* ctr_degraded_playouts_ = nullptr;
  obs::Counter* ctr_sighup_ = nullptr;
  obs::Gauge* gauge_truncated_tail_ = nullptr;  ///< wire-source partial tail
  obs::Gauge* gauge_rejected_records_ = nullptr;

  SimReport total_report_;  ///< folded reports of completed engine epochs
  Time reconfig_drain_steps_ = 0;
  Time max_reconfig_lag_ = 0;
  std::int64_t incidents_written_ = 0;
};

/// Installs SIGTERM/SIGINT handlers that call daemon.request_stop() and a
/// SIGHUP handler that calls daemon.request_snapshot() (write + republish
/// without stopping). The handlers only store into atomics
/// (async-signal-safe); at most one daemon can be installed at a time
/// (re-install for a new one).
void install_signal_handlers(Daemon& daemon);

}  // namespace rtsmooth::daemon

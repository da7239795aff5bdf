// LiveEngine: the simulator's step (server -> link -> client) repackaged
// for endless serving (DESIGN.md Sect. 13).
//
// The batch SmoothingSimulator walks an immutable Stream to a known
// horizon. A daemon has neither — frames keep coming, so run state must be
// *recycled*. The engine runs the same shared step (core/pipeline.h) as the
// simulator, with a client whose run table holds max_live_runs slots, plus
// a pinned arena of the same size. An admitted frame becomes a unit-slice
// SliceRun in arena slot seq % max_live_runs (the server buffer, link and
// client hold pointers into it), identified by a monotone sequence number.
// The client retires a run on the step its last byte becomes terminal
// (played, dropped, late, overflowed, or written off), which frees the
// slot. Frame s gets sequence number s only once run s - max_live_runs has
// retired; otherwise it is refused — the engine's built-in backpressure,
// which keeps memory bounded forever. What the engine adds to the shared
// step is that arena, slot refusal, the degradation ladder's value floor
// (applied between the step's admissions and its Eq. (3) shed) and the
// daemon's metrics.
//
// Because the step is the simulator's own, a drained engine's SimReport
// equals a batch run over the same arrivals, which tests/test_reconfig.cpp
// pins against the reference oracle, and every step record equals the
// simulator's, which tests/test_property.cpp pins step by step.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/slice.h"
#include "core/types.h"
#include "daemon/frame_source.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "trace/value_model.h"

namespace rtsmooth::daemon {

struct EngineConfig {
  Bytes server_buffer = 1;  ///< B
  Bytes client_buffer = 1;  ///< Bc
  Bytes rate = 1;           ///< R
  Time smoothing_delay = 1;  ///< D
  Time link_delay = 1;       ///< P
  std::string policy = "greedy";
  std::uint64_t policy_seed = 7;
  trace::ValueModel values = trace::ValueModel::mpeg_default();
  RecoveryConfig recovery{};
  /// Run table and arena size == max frames simultaneously live anywhere in
  /// the pipeline. Frame s is refused (backpressure) until run
  /// s - max_live_runs has retired.
  std::size_t max_live_runs = 4096;

  Time playout_offset() const { return link_delay + smoothing_delay; }
  /// Empty when well-formed, else a human-readable problem description.
  std::string validate() const;
};

/// What one engine step did — the watchdog's sample and the daemon's ledger.
struct StepStats {
  /// The shared step's record (engine-local `t`): admitted bytes as
  /// `arrived`, the byte flows and the post-step occupancies.
  obs::StepRecord record;
  std::int64_t admitted = 0;    ///< admitted frames
  Bytes refused = 0;            ///< bytes refused for slot exhaustion
  Bytes floor_shed = 0;     ///< bytes shed by the value floor this step
  double offered_weight = 0.0;  ///< weight admitted this step
  double lost_weight = 0.0;     ///< weight newly in a loss category
  std::int64_t playouts = 0;    ///< frames whose playout step this was
  std::int64_t degraded = 0;    ///< playouts with bytes missing
};

class LiveEngine {
 public:
  /// `link` overrides the default lossless FixedDelayLink(link_delay) —
  /// the daemon injects fault links here. Aborts on invalid config; call
  /// config.validate() first for a recoverable error path.
  LiveEngine(EngineConfig config, obs::Telemetry telemetry = {},
             std::unique_ptr<Link> link = nullptr);

  /// Runs one shared step at the engine-local time now(): NACK triage,
  /// admissions, value-floor shed (when `value_floor` > 0), Eq. (2)/(3)
  /// server step, link transfer, delivery, playout, capacity settling,
  /// incremental run retirement. Frames refused for slot exhaustion are
  /// counted in the returned stats and are NOT part of the engine's offered
  /// ledger.
  StepStats step(std::span<const IngestFrame> frames, double value_floor = 0.0);

  /// Admission headroom in bytes: what this step can take without Eq. (3)
  /// shedding (B + R minus current occupancy). The daemon's admission-
  /// control rung budgets against this.
  Bytes admission_budget() const {
    const Bytes room =
        config_.server_buffer + config_.rate - server_occupancy();
    return room > 0 ? room : 0;
  }

  /// True when nothing is owed anywhere: server buffer and retransmission
  /// queue empty, link empty, no client-stored bytes, no live runs.
  bool quiescent() const {
    return aborted_ ||
           (pipeline_.server().idle() && pipeline_.link().idle() &&
            client_occupancy() == 0 && active_runs() == 0);
  }

  /// Moves everything still owed by live runs (server-buffered, in flight,
  /// client-stored) into report().residual via Pipeline::finalize() and
  /// deactivates the engine, for drains that hit their ceiling (e.g. a
  /// permanent link outage). After this the engine is quiescent and must
  /// not be stepped.
  void abort_residual();

  /// Offset added to engine-local time in FlightRecorder step records, so a
  /// daemon's incident windows keep strictly rising timestamps across
  /// engine rebuilds. Semantic time (arrivals, deadlines) stays local.
  void set_record_base(Time base) { record_base_ = base; }

  Time now() const { return now_; }
  std::int64_t active_runs() const { return pipeline_.client().live_runs(); }
  const EngineConfig& config() const { return config_; }
  /// Cumulative report over everything admitted so far. conserves() holds
  /// exactly when no runs are live (drained or aborted).
  const SimReport& report() const { return pipeline_.report(); }
  Bytes server_occupancy() const {
    return pipeline_.server().buffer().occupancy();
  }
  Bytes client_occupancy() const { return pipeline_.client().occupancy(); }

 private:
  void admit_frame(const IngestFrame& frame, StepStats& st);

  EngineConfig config_;
  obs::Telemetry telemetry_;
  Pipeline pipeline_;
  /// Pinned run arena: frame seq lives in runs_[seq % max_live_runs] until
  /// the client retires it. Reserved up front and filled on first
  /// admission, so it never reallocates.
  std::vector<SliceRun> runs_;
  Time now_ = 0;
  Time record_base_ = 0;
  std::size_t next_seq_ = 0;
  bool aborted_ = false;
  // Instruments resolved once at construction; null when telemetry is off.
  obs::Counter* played_bytes_ = nullptr;
  obs::Counter* late_bytes_ = nullptr;
  obs::Counter* overflow_bytes_ = nullptr;
  obs::Counter* refused_frames_ = nullptr;
  obs::Counter* retired_runs_ = nullptr;
  obs::Gauge* max_client_occupancy_ = nullptr;
  obs::Gauge* max_lateness_ = nullptr;
  obs::Histogram* hist_slack_ = nullptr;     ///< playout_at - t, stored bytes
  obs::Histogram* hist_lateness_ = nullptr;  ///< t - playout_at, late bytes
};

}  // namespace rtsmooth::daemon

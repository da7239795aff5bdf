// SLO watchdog for the serving loop (DESIGN.md Sect. 13): turns sustained
// service-level breaches into FlightRecorder incidents and feeds the
// degradation ladder a per-step pressure signal.
//
// Three SLOs, each evaluated over a sliding window of engine StepStats with
// O(1) running sums:
//
//   * stall rate       — degraded playouts / playouts
//   * weighted loss    — lost weight / offered weight
//   * occupancy        — fraction of window steps with the server buffer
//                        above `max_occupancy_frac` of B
//
// A breach (window full, rate above its limit) increments a counter and —
// rate-limited by `cooldown` per SLO kind — captures an incident through
// FlightRecorder::on_violation with kind "slo.stall_rate" / "slo.loss_rate"
// / "slo.occupancy" and the rate in parts-per-million as the magnitude.
// The returned Pressure reflects the instantaneous window rates every step
// regardless of cooldown, so the ladder sees overload continuously.
//
// Since the timeline work (DESIGN.md Sect. 16) the watchdog also accepts
// multi-window burn-rate verdicts via observe_burn(): when a timeline
// budget fires (both windows burning at >= threshold), the breach is
// tallied and — per-budget cooldown — captured with kind
// "slo.burn.<budget>" and the short-window burn in ppm as the magnitude.
// Breaches fire on budget exhaustion *rate*, not raw counts.
//
// Every tally is a `daemon.slo.*` registry counter and nothing else
// (stall/loss/occupancy/burn breaches, incidents captured, captures
// suppressed by cooldown); breaches() and cooldown_suppressed() read them.
// So breach history survives in snapshots and Prometheus scrapes, not only
// as flight-recorder incidents.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "daemon/live_engine.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"

namespace rtsmooth::obs {
class FlightRecorder;
}

namespace rtsmooth::daemon {

struct SloConfig {
  bool enabled = true;
  double max_stall_rate = 0.05;
  double max_weighted_loss_rate = 0.10;
  /// Occupancy line as a fraction of the server buffer B.
  double max_occupancy_frac = 0.95;
  /// Breach when more than this fraction of window steps sit above the line.
  double max_occupancy_step_frac = 0.50;
  Time window = 512;
  /// Minimum steps between captured incidents per SLO kind; breaches during
  /// the cooldown are still counted and still produce pressure.
  Time cooldown = 2048;
};

struct SloBreaches {
  std::int64_t stall = 0;
  std::int64_t loss = 0;
  std::int64_t occupancy = 0;
  std::int64_t burn = 0;  ///< timeline budget-exhaustion breaches
  std::int64_t total() const { return stall + loss + occupancy + burn; }
};

class Watchdog {
 public:
  struct Pressure {
    bool stall = false;
    bool loss = false;
    bool occupancy = false;
    bool any() const { return stall || loss || occupancy; }
  };

  /// `recorder` may be null (breaches are counted, nothing is captured).
  Watchdog(SloConfig config, Bytes server_buffer,
           obs::FlightRecorder* recorder, obs::Registry& registry);

  /// Feeds one step's stats; `t` is the daemon's global step (used for
  /// incident timestamps and cooldowns).
  Pressure observe(Time t, const StepStats& stats);

  /// Feeds one timeline budget's burn verdict (timeline-enabled daemons,
  /// at slot cadence). A firing budget breaches; the incident kind is
  /// "slo.burn.<budget>" with its own cooldown track.
  void observe_burn(Time t, const obs::BurnStatus& status);

  /// Reconfiguration moved the occupancy line.
  void set_server_buffer(Bytes server_buffer);

  SloBreaches breaches() const {
    return {.stall = stall_breaches_->value(),
            .loss = loss_breaches_->value(),
            .occupancy = occupancy_breaches_->value(),
            .burn = burn_breaches_->value()};
  }
  std::int64_t cooldown_suppressed() const {
    return suppressed_counter_->value();
  }
  /// Current window rates (0 while the window is filling).
  double stall_rate() const;
  double loss_rate() const;
  double occupancy_step_frac() const;

 private:
  struct Sample {
    std::int64_t playouts = 0;
    std::int64_t degraded = 0;
    double offered_weight = 0.0;
    double lost_weight = 0.0;
    std::int64_t occupancy_high = 0;  ///< 0/1: post-step occupancy over line
  };

  bool window_full() const {
    return seen_ >= static_cast<std::int64_t>(ring_.size());
  }
  /// Captures an incident of `kind` with `rate` in ppm as its magnitude,
  /// unless the kind's last capture is within the cooldown.
  void capture(Time t, std::string_view kind, double rate,
               Time& last_capture);

  SloConfig config_;
  Bytes server_buffer_;
  Bytes occupancy_line_;
  obs::FlightRecorder* recorder_;
  std::vector<Sample> ring_;
  std::int64_t seen_ = 0;
  // Running window sums, O(1) per observe.
  std::int64_t playouts_ = 0;
  std::int64_t degraded_ = 0;
  double offered_weight_ = 0.0;
  double lost_weight_ = 0.0;
  std::int64_t occupancy_high_ = 0;
  Time last_stall_capture_ = -1;
  Time last_loss_capture_ = -1;
  Time last_occupancy_capture_ = -1;
  /// Per-budget capture cooldown tracks for observe_burn().
  std::map<std::string, Time, std::less<>> last_burn_capture_;
  obs::Counter* stall_breaches_;
  obs::Counter* loss_breaches_;
  obs::Counter* occupancy_breaches_;
  obs::Counter* burn_breaches_;
  obs::Counter* incidents_counter_;
  obs::Counter* suppressed_counter_;
};

}  // namespace rtsmooth::daemon

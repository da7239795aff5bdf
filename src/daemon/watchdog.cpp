#include "daemon/watchdog.h"

#include <cmath>

#include "obs/flight_recorder.h"
#include "util/assert.h"

namespace rtsmooth::daemon {
namespace {

Bytes occupancy_line(Bytes server_buffer, double frac) {
  const double line = static_cast<double>(server_buffer) * frac;
  return static_cast<Bytes>(std::llround(line));
}

}  // namespace

Watchdog::Watchdog(SloConfig config, Bytes server_buffer,
                   obs::FlightRecorder* recorder, obs::Registry& registry)
    : config_(config),
      server_buffer_(server_buffer),
      occupancy_line_(occupancy_line(server_buffer,
                                     config.max_occupancy_frac)),
      recorder_(recorder),
      stall_breaches_(&registry.counter("daemon.slo.stall_rate_breaches")),
      loss_breaches_(&registry.counter("daemon.slo.loss_rate_breaches")),
      occupancy_breaches_(&registry.counter("daemon.slo.occupancy_breaches")),
      burn_breaches_(&registry.counter("daemon.slo.burn_breaches")),
      incidents_counter_(&registry.counter("daemon.slo.incidents")),
      suppressed_counter_(&registry.counter("daemon.slo.cooldown_suppressed")) {
  RTS_EXPECTS(config_.window >= 1);
  RTS_EXPECTS(config_.cooldown >= 0);
  ring_.resize(static_cast<std::size_t>(config_.window));
}

void Watchdog::set_server_buffer(Bytes server_buffer) {
  server_buffer_ = server_buffer;
  occupancy_line_ = occupancy_line(server_buffer, config_.max_occupancy_frac);
}

double Watchdog::stall_rate() const {
  if (!window_full() || playouts_ == 0) return 0.0;
  return static_cast<double>(degraded_) / static_cast<double>(playouts_);
}

double Watchdog::loss_rate() const {
  if (!window_full() || offered_weight_ <= 0.0) return 0.0;
  return lost_weight_ / offered_weight_;
}

double Watchdog::occupancy_step_frac() const {
  if (!window_full()) return 0.0;
  return static_cast<double>(occupancy_high_) /
         static_cast<double>(ring_.size());
}

void Watchdog::capture(Time t, std::string_view kind, double rate,
                       Time& last_capture) {
  if (recorder_ == nullptr) return;
  if (last_capture >= 0 && t - last_capture < config_.cooldown) {
    suppressed_counter_->add(1);
    return;
  }
  last_capture = t;
  incidents_counter_->add(1);
  recorder_->on_violation(t, kind,
                          static_cast<std::int64_t>(std::llround(rate * 1e6)));
}

void Watchdog::observe_burn(Time t, const obs::BurnStatus& status) {
  if (!config_.enabled || !status.firing) return;
  burn_breaches_->add(1);
  const std::string& name = status.budget->name;
  Time& last = last_burn_capture_.try_emplace(name, Time{-1}).first->second;
  // The short window is the fast-detection window — its burn is the
  // magnitude a responder wants first.
  capture(t, "slo.burn." + name, status.short_burn, last);
}

Watchdog::Pressure Watchdog::observe(Time t, const StepStats& stats) {
  if (!config_.enabled) return {};
  Sample& slot = ring_[static_cast<std::size_t>(
      seen_ % static_cast<std::int64_t>(ring_.size()))];
  // Retire the sample falling out of the window from the running sums.
  playouts_ -= slot.playouts;
  degraded_ -= slot.degraded;
  offered_weight_ -= slot.offered_weight;
  lost_weight_ -= slot.lost_weight;
  occupancy_high_ -= slot.occupancy_high;
  slot.playouts = stats.playouts;
  slot.degraded = stats.degraded;
  slot.offered_weight = stats.offered_weight;
  // Clamp: a retirement burst can momentarily release more loss weight than
  // this window offered; rates stay in [0, +) either way.
  slot.lost_weight = stats.lost_weight > 0.0 ? stats.lost_weight : 0.0;
  slot.occupancy_high =
      stats.record.server_occupancy > occupancy_line_ ? 1 : 0;
  playouts_ += slot.playouts;
  degraded_ += slot.degraded;
  offered_weight_ += slot.offered_weight;
  lost_weight_ += slot.lost_weight;
  occupancy_high_ += slot.occupancy_high;
  ++seen_;

  Pressure pressure;
  if (!window_full()) return pressure;
  const double stall = stall_rate();
  const double loss = loss_rate();
  const double occ = occupancy_step_frac();
  pressure.stall = stall > config_.max_stall_rate;
  pressure.loss = loss > config_.max_weighted_loss_rate;
  pressure.occupancy = occ > config_.max_occupancy_step_frac;
  if (pressure.stall) {
    stall_breaches_->add(1);
    capture(t, "slo.stall_rate", stall, last_stall_capture_);
  }
  if (pressure.loss) {
    loss_breaches_->add(1);
    capture(t, "slo.loss_rate", loss, last_loss_capture_);
  }
  if (pressure.occupancy) {
    occupancy_breaches_->add(1);
    capture(t, "slo.occupancy", occ, last_occupancy_capture_);
  }
  return pressure;
}

}  // namespace rtsmooth::daemon

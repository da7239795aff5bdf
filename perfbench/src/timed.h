// Layer timing from outside the library: decorators over the public
// DropPolicy and Link interfaces that count calls, bytes and time spent
// inside them, plus a traced simulate() built from those decorators. Only
// traced runs use them; end-to-end numbers never do.
//
// A clock read costs about as much as an idle link call, so a LayerClock
// times only one call in `sample_every`, subtracts the clock's own cost from
// each timed call, and scales the sum to all calls.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/drop_policy.h"
#include "core/link.h"
#include "harness.h"
#include "sim/simulator.h"

namespace rtbench {

/// Calls, bytes and estimated time spent in one layer.
class LayerClock {
 public:
  /// `sample_every` must be a power of two; 1 times every call.
  explicit LayerClock(std::uint64_t sample_every = 1)
      : mask_(sample_every - 1) {}

  /// Counts a call; true when this call is one to time.
  bool sample() { return (calls_++ & mask_) == 0; }
  /// Records a timed call that ran from t0 to t1.
  void record(Clock::time_point t0, Clock::time_point t1) {
    ns_ += static_cast<double>(ns_between(t0, t1)) - clock_read_ns();
    ++timed_;
  }
  void add_bytes(std::int64_t bytes) { bytes_ += bytes; }

  std::int64_t calls() const { return calls_; }
  std::int64_t timed() const { return timed_; }
  std::int64_t bytes() const { return bytes_; }
  /// Estimated time over all calls: the timed calls' mean times calls().
  double seconds() const {
    return timed_ > 0 ? ns_ * 1e-9 * static_cast<double>(calls_) /
                            static_cast<double>(timed_)
                      : 0.0;
  }

 private:
  std::uint64_t mask_;
  std::int64_t calls_ = 0;
  std::int64_t timed_ = 0;
  std::int64_t bytes_ = 0;
  double ns_ = 0;
};

/// Times shed() (the Eq. (3) victim choice). early_drop() is forwarded
/// untimed: it is a no-op for every policy the benchmark runs.
class TimedPolicy final : public rtsmooth::DropPolicy {
 public:
  TimedPolicy(std::unique_ptr<rtsmooth::DropPolicy> inner, LayerClock* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  rtsmooth::DropResult shed(rtsmooth::ServerBuffer& buf,
                            rtsmooth::Bytes target) override {
    if (!sink_->sample()) return counted(inner_->shed(buf, target));
    const auto t0 = Clock::now();
    const rtsmooth::DropResult result = inner_->shed(buf, target);
    sink_->record(t0, Clock::now());
    return counted(result);
  }
  rtsmooth::DropResult early_drop(rtsmooth::ServerBuffer& buf,
                                  rtsmooth::Bytes target,
                                  rtsmooth::Time now) override {
    return inner_->early_drop(buf, target, now);
  }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<rtsmooth::DropPolicy> clone() const override {
    return std::make_unique<TimedPolicy>(inner_->clone(), sink_);
  }

 private:
  rtsmooth::DropResult counted(rtsmooth::DropResult result) {
    sink_->add_bytes(result.bytes);
    return result;
  }

  std::unique_ptr<rtsmooth::DropPolicy> inner_;
  LayerClock* sink_;
};

/// Times the data-moving calls, submit() and deliver(); the cheap state
/// queries are forwarded untimed.
class TimedLink final : public rtsmooth::Link {
 public:
  TimedLink(std::unique_ptr<rtsmooth::Link> inner, LayerClock* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  void submit(rtsmooth::Time t,
              std::vector<rtsmooth::SentPiece> pieces) override {
    for (const rtsmooth::SentPiece& p : pieces) sink_->add_bytes(p.bytes);
    if (!sink_->sample()) return inner_->submit(t, std::move(pieces));
    const auto t0 = Clock::now();
    inner_->submit(t, std::move(pieces));
    sink_->record(t0, Clock::now());
  }
  std::vector<rtsmooth::SentPiece> deliver(rtsmooth::Time t) override {
    if (!sink_->sample()) return inner_->deliver(t);
    const auto t0 = Clock::now();
    std::vector<rtsmooth::SentPiece> out = inner_->deliver(t);
    sink_->record(t0, Clock::now());
    return out;
  }
  std::vector<rtsmooth::Nack> collect_nacks(rtsmooth::Time t) override {
    return inner_->collect_nacks(t);
  }
  bool idle() const override { return inner_->idle(); }
  rtsmooth::Time min_delay() const override { return inner_->min_delay(); }
  rtsmooth::Time next_activity(rtsmooth::Time now) const override {
    return inner_->next_activity(now);
  }
  void advance_to(rtsmooth::Time t) override { inner_->advance_to(t); }
  void set_telemetry(rtsmooth::obs::Telemetry telemetry) override {
    inner_->set_telemetry(telemetry);
  }

 private:
  std::unique_ptr<rtsmooth::Link> inner_;
  LayerClock* sink_;
};

/// Layer totals of a batch of traced simulations.
struct SimLayers {
  LayerClock link{64};
  std::map<std::string, LayerClock> shed;  ///< per policy name, every call
  std::int64_t simulate_ns = 0;  ///< undecorated runs, timed from outside
  std::int64_t decorated_ns = 0;  ///< the runs behind the decorators
  std::int64_t slots = 0;

  double simulate_s() const { return static_cast<double>(simulate_ns) * 1e-9; }
  /// What is left of simulate time once shed and link time are taken out:
  /// arrivals, server buffer, client and observers.
  double server_client_s() const;
};

/// Runs `policy` under `config` twice with SmoothingSimulator: once as is,
/// timed as a whole, and once with the policy and a FixedDelayLink behind
/// the timing decorators, which split the time into layers. The
/// decorators' forwarding calls cost about as much as an idle slot, so the
/// whole-run time comes from the first run. Both runs must reproduce
/// `expected` (one checked operation each).
void traced_simulate(const rtsmooth::Stream& stream,
                     const rtsmooth::sim::SimConfig& config,
                     const std::string& policy,
                     const rtsmooth::SimReport& expected, SimLayers& layers,
                     Report& report);

/// Share of slots with nothing to do — no arrival, send, delivery, playout
/// or drop — counted from a ScheduleRecorder over one run.
double quiescent_slot_share(const rtsmooth::Stream& stream,
                            const rtsmooth::sim::SimConfig& config,
                            const std::string& policy);

}  // namespace rtbench

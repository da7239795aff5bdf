// End-to-end slotted simulation of the smoothing system of Fig. 1:
// source -> server buffer -> link -> client buffer -> playout device.
//
// Each live step is one step of the shared pipeline (core/pipeline.h), in
// the event order fixed in Sect. 2.2: loss feedback (NACKs) reaches the
// server; the frame A(t) arrives at the server; the server drops,
// retransmits and sends per the generic algorithm (Eqs. (2),(3)) with its
// DropPolicy; the link delivers R(t) = S(t-P); the client stores, then
// plays the frame whose playout step this is (PT = AT + P + D, shifted by
// any rebuffering under UnderflowPolicy::Stall). The simulator adds what a
// batch run needs around it: the stream's arrival cursor, the drain test,
// span skipping and the observers. The run continues past the last arrival
// until the server (buffer and retransmission queue), link (including
// pending loss feedback) and playout pipeline fully drain, so reports
// always satisfy conservation — even on faulty links. Quiescent spans
// (server idle, client empty, no event due) are absorbed without stepping
// through them; observers still see every step, through the same step
// record a live step returns (DESIGN.md Sect. 17).
//
// An InvariantMonitor (src/faults/) watches the Lemma 3.2-3.4 guarantees
// every step and records violations into the report instead of aborting:
// faulty channels are supposed to break them, and the measure of interest
// is by how much.

#pragma once

#include <memory>
#include <string>

#include "core/client.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "core/slice.h"
#include "obs/telemetry.h"

namespace rtsmooth::sim {

struct SimConfig {
  Bytes server_buffer = 1;  ///< Bs
  Bytes client_buffer = 1;  ///< Bc
  Bytes rate = 1;           ///< R
  Time smoothing_delay = 1; ///< D
  Time link_delay = 1;      ///< P
  /// Playout convention; see core/client.h. The timer mode is the paper's
  /// synchronization-free protocol of Sect. 3.3.
  PlayoutMode playout = PlayoutMode::ArrivalPlusOffset;

  /// Client degradation mode when the due frame is incomplete (faulty links
  /// only — on the paper's lossless channel underflow never happens).
  UnderflowPolicy underflow = UnderflowPolicy::Skip;
  /// Max rebuffering steps spent on any one frame (Stall only).
  Time max_stall = 16;

  /// NACK/retransmit behaviour for lossy links; `smoothing_delay` inside is
  /// filled in by the simulator, callers only set the other fields.
  RecoveryConfig recovery{};

  /// Telemetry handle, null by default (instrumentation costs nothing; see
  /// obs/telemetry.h). With a registry the run fills counters and the
  /// occupancy / sojourn / stall / drop-burst histograms; with a tracer it
  /// emits one JSONL event per step (the step record's byte flows and
  /// occupancies) plus config/violation/run events. With a flight
  /// recorder (obs/flight_recorder.h) every step lands in its ring and an
  /// invariant violation freezes the trailing window into an
  /// `rtsmooth-incident-v1` report.
  obs::Telemetry telemetry{};

  /// The paper's recommended configuration: Bs = Bc = B = D*R.
  static SimConfig balanced(const Plan& plan, Time link_delay = 1) {
    return SimConfig{.server_buffer = plan.buffer,
                     .client_buffer = plan.buffer,
                     .rate = plan.rate,
                     .smoothing_delay = plan.delay,
                     .link_delay = link_delay};
  }

  /// Validates the configuration against `stream` and returns a
  /// human-readable description of the first problem, or an empty string if
  /// the configuration is runnable. Notably checks the documented
  /// precondition server_buffer >= the stream's largest slice — a slice
  /// that can never fit could never be scheduled.
  std::string validate(const Stream& stream) const;
};

class SmoothingSimulator {
 public:
  /// `link` defaults to FixedDelayLink(config.link_delay). The stream must
  /// outlive the simulator. Throws std::invalid_argument with the
  /// config.validate() message if the configuration is not runnable.
  SmoothingSimulator(const Stream& stream, SimConfig config,
                     std::unique_ptr<DropPolicy> policy,
                     std::unique_ptr<Link> link = nullptr);

  /// Runs the whole schedule to drain. Call once. Pass a recorder to keep
  /// per-run outcomes / per-step set sizes for inspection.
  SimReport run(ScheduleRecorder* rec = nullptr);

  const SimConfig& config() const { return config_; }

 private:
  const Stream* stream_;
  SimConfig config_;
  Pipeline pipeline_;
  bool ran_ = false;
};

/// One-call convenience: simulate `stream` under the balanced plan with the
/// named policy (see policy_factory.h). Pass a telemetry handle to collect
/// counters/histograms or a JSONL trace for the run.
SimReport simulate(const Stream& stream, const Plan& plan,
                   std::string_view policy_name, Time link_delay = 1,
                   obs::Telemetry telemetry = {});

/// One-call convenience for callers with a hand-built configuration or a
/// custom (e.g. faulty) link: simulate `stream` under `config` with the
/// named policy. `link` defaults to FixedDelayLink(config.link_delay).
SimReport simulate(const Stream& stream, const SimConfig& config,
                   std::string_view policy_name,
                   std::unique_ptr<Link> link = nullptr);

}  // namespace rtsmooth::sim

// One step of the smoothing system of Fig. 1 — server -> link -> client —
// the one implementation the batch simulator (src/sim/) and the live engine
// (src/daemon/) both run.
//
// Per step t, in the event order of Sect. 2.2: begin(t) hands the loss
// feedback due at t to the server; admit() opens each arrival in the client
// ledger and pushes it into the server buffer; finish() runs Eqs. (2)/(3),
// moves the send onto the link, and has the client store the delivery R(t)
// and play the frame due at t. The server books its drops and write-offs
// straight into the client's per-run ledger (core/client.h).
//
// finish() returns the step's obs::StepRecord, which every observer reads:
// the ScheduleRecorder's steps, the JSONL tracer, the flight recorder and
// the daemon's StepStats. Once filled, a step allocates nothing (DESIGN.md
// Sect. 12).

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/client.h"
#include "core/drop_policy.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/schedule.h"
#include "core/slice.h"
#include "core/types.h"
#include "obs/flight_recorder.h"

namespace rtsmooth {

/// The server half of a simulator or engine configuration (sim::SimConfig
/// and daemon::EngineConfig spell B, R, D and the recovery settings alike).
/// D goes into the recovery deadline test, which lives at the server, so
/// callers give it once.
template <class Config>
ServerConfig server_config(const Config& config) {
  ServerConfig sc{.buffer = config.server_buffer,
                  .rate = config.rate,
                  .recovery = config.recovery};
  sc.recovery.smoothing_delay = config.smoothing_delay;
  return sc;
}

class Pipeline {
 public:
  /// `link` must not be null.
  Pipeline(ServerConfig server, std::unique_ptr<DropPolicy> policy,
           std::unique_ptr<Link> link, Client client);

  /// Opens step t: the NACKs due at t reach the server and pro-active drops
  /// act on the pre-arrival state. `rec`, when given, receives this step's
  /// per-run outcomes.
  void begin(Time t, ScheduleRecorder* rec = nullptr);

  /// Admits the arrival `run` under identity `run_index`: tallies it as
  /// offered and opens it in the client ledger and the server buffer, in
  /// index order and only while client().can_admit(). `run` must stay put
  /// until the run retires.
  void admit(const SliceRun& run, std::size_t run_index);

  /// Closes the step: retransmissions, Eq. (3) shed, Eq. (2) send, link
  /// transfer, delivery, playout and capacity settling. Returns the step's
  /// record, valid until the next begin().
  const obs::StepRecord& finish();

  /// The pieces the server sent and the link delivered in the last
  /// finished step; valid until the next begin().
  std::span<const SentPiece> sent() const { return sent_; }
  std::span<const SentPiece> delivered() const { return delivered_; }

  /// Accounts for the quiescent steps [t0, t1) without running them: the
  /// link advances as if polled every step and the registry samples are
  /// back-filled. Only valid while nothing can happen in the span.
  void skip(Time t0, Time t1);

  /// Settles every run that has not retired into the report
  /// (Client::finalize). Call once, after the last step.
  void finalize() { client_.finalize(report_); }

  SmoothingServer& server() { return server_; }
  const SmoothingServer& server() const { return server_; }
  Link& link() { return *link_; }
  const Link& link() const { return *link_; }
  Client& client() { return client_; }
  const Client& client() const { return client_; }
  /// Everything the pipeline has accounted so far; conserves() once no run
  /// is live. The caller keeps `steps` current.
  SimReport& report() { return report_; }
  const SimReport& report() const { return report_; }

 private:
  SmoothingServer server_;
  std::unique_ptr<Link> link_;
  Client client_;
  SimReport report_;
  ScheduleRecorder* rec_ = nullptr;
  obs::StepRecord record_;
  // Running totals at begin(), for the record's per-step deltas.
  Bytes played_before_ = 0;
  Bytes dropped_server_before_ = 0;
  Bytes dropped_client_before_ = 0;
  Bytes retransmitted_before_ = 0;
  Time stalls_before_ = 0;
  std::vector<SentPiece> sent_;
  std::vector<SentPiece> delivered_;
  std::vector<SentPiece> spare_;  ///< recycled storage for the next send
};

}  // namespace rtsmooth

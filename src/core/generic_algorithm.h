// The generic server algorithm (paper Sect. 3.1.1, Eqs. (2) and (3)).
//
// Per step t:   |S(t)| = min(R, |Bs(t-1)| + |A(t)|)                    (2)
//               |D(t)| = max(0, |Bs(t-1)| + |A(t)| - |S(t)| - B)       (3)
//
// i.e. the server is work-conserving — it transmits at the full link rate
// whenever it has data — and on overflow drops just enough whole slices to
// bring post-send occupancy back to B. *Which* slices are dropped is
// delegated to a DropPolicy (the paper's intentional under-specification);
// with unit slices the count dropped is exactly Eq. (3) regardless of
// policy, which is what makes Theorem 3.5 policy-independent.

// Recovery extension (not in the paper; see DESIGN.md "Fault model &
// recovery semantics"): on a lossy link, erased pieces come back as NACKs.
// A NACKed piece is retransmitted — with exponential backoff in slots and a
// bounded retry budget — only while the copy can still arrive by its playout
// deadline AT + P + D, i.e. while the retransmission step is <= AT + D.
// Anything else is written off and surfaced to the accounting sink, so the
// report's conservation invariant keeps holding byte-for-byte under faults.
// Retransmissions take priority over fresh data inside the same link rate R,
// so recovery degrades throughput instead of violating Eq. (2).

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/drop_policy.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/schedule.h"
#include "core/server_buffer.h"
#include "core/slice.h"
#include "core/types.h"
#include "obs/telemetry.h"
#include "util/ring_buffer.h"

namespace rtsmooth {

/// Retransmission behaviour for NACKed pieces. Disabled by default: every
/// reported loss is written off immediately (pure-loss accounting).
struct RecoveryConfig {
  bool enabled = false;
  std::int32_t max_retries = 3;  ///< retransmissions per piece beyond the original
  Time backoff_base = 1;  ///< the k-th retransmission waits base << (k-1) slots
  /// D, for the deadline test (a retransmission sent at step ts arrives at
  /// ts + P and must make AT + P + D, so ts <= AT + D). The simulator fills
  /// this from SimConfig; standalone servers set it explicitly.
  Time smoothing_delay = 0;
};

struct ServerConfig {
  Bytes buffer = 1;  ///< B: bound on |Bs(t)| after each step
  Bytes rate = 1;    ///< R: link rate in bytes per step
  RecoveryConfig recovery{};
};

/// The smoothing server: buffer + link-rate constraint + drop policy.
///
/// Precondition for well-formed operation: B >= Lmax (a slice larger than
/// the buffer could never be stored). The constructor cannot check this
/// (streams arrive later); SmoothingSimulator checks it per stream.
class SmoothingServer {
 public:
  SmoothingServer(ServerConfig config, std::unique_ptr<DropPolicy> policy);

  /// Executes one step: NACK triage, (early drops,) arrivals, retransmit
  /// due pieces, Eq. (3) drops, Eq. (2) send with the remaining rate. Drop
  /// and arrival tallies are accumulated into `report`; per-run outcomes
  /// into `rec` if given. The pieces submitted to the link are appended to
  /// `out` — the allocation-free entry point: callers that recycle `out`'s
  /// storage across steps (the simulator does) pay no heap traffic here.
  void step_into(Time t, const ArrivalBatch& arrivals,
                 std::span<const Nack> nacks, SimReport& report,
                 ScheduleRecorder* rec, std::vector<SentPiece>& out);

  /// Convenience wrapper returning a fresh vector per call.
  std::vector<SentPiece> step(Time t, const ArrivalBatch& arrivals,
                              std::span<const Nack> nacks, SimReport& report,
                              ScheduleRecorder* rec) {
    std::vector<SentPiece> out;
    step_into(t, arrivals, nacks, report, rec, out);
    return out;
  }

  /// Lossless-link convenience: step with no NACKs.
  std::vector<SentPiece> step(Time t, const ArrivalBatch& arrivals,
                              SimReport& report, ScheduleRecorder* rec) {
    return step(t, arrivals, {}, report, rec);
  }

  /// Phase-split step interface, for live callers (src/daemon/) whose
  /// arrivals are not a contiguous ArrivalBatch span: a serving loop admits
  /// runs out of a recycling slot arena, so run identities are arbitrary
  /// per-step indices, not `first_index + i`. Per step, call begin_step()
  /// once, admit() zero or more times, then finish_step() once —
  /// step_into() is exactly that composition, so the phases share every
  /// invariant (event order, accounting, allocation-freedom) with the batch
  /// entry point.
  void begin_step(Time t, std::span<const Nack> nacks, SimReport& report,
                  ScheduleRecorder* rec);
  /// Pushes `run.count` slices of `run` into the buffer under identity
  /// `run_index` and tallies them as offered. Only valid between
  /// begin_step() and finish_step().
  void admit(const SliceRun& run, std::size_t run_index);
  /// Retransmits due pieces, sheds per Eq. (3), and sends per Eq. (2);
  /// submitted pieces are appended to `out`.
  void finish_step(std::vector<SentPiece>& out);

  /// Degradation hook (the daemon's overload ladder, DESIGN.md Sect. 13):
  /// drops every droppable slice whose byte value is <= `floor`, using the
  /// same greedy-shed template the value-aware policies use, and accounts
  /// the drops into `report`. Callable between begin_step() and
  /// finish_step() (then `report` must be the step's bound report) or
  /// between whole steps. Returns what was dropped.
  DropResult shed_below_value(double floor, SimReport& report);

  const ServerBuffer& buffer() const { return buffer_; }
  const ServerConfig& config() const { return config_; }
  const DropPolicy& policy() const { return *policy_; }

  /// True when both the buffer and the retransmission queue are empty.
  bool idle() const { return buffer_.empty() && retx_queue_.empty(); }

  /// Registry back-fill for `n` quiescent steps the simulator skipped:
  /// the zero-valued per-step samples finish_step() records for an idle
  /// server (the byte counters add 0 on such steps, which is a no-op).
  /// No-op while telemetry is off.
  void record_idle_steps(std::int64_t n) {
    if (occupancy_hist_ == nullptr) return;
    occupancy_hist_->record(0, n);
    max_occupancy_->update(0);
  }

  /// Invoked with every piece written off as link loss (NACKed but not
  /// recoverable: retries exhausted, or the deadline cannot be met). The
  /// simulator and the live engine wire this to Client::add_link_loss so
  /// lost bytes stay in the conservation ledger.
  using LinkLossSink = std::function<void(const SliceRun& run,
                                          std::size_t run_index, Bytes bytes)>;
  void set_link_loss_sink(LinkLossSink sink) { loss_sink_ = std::move(sink); }

  /// Invoked with every server-side drop (Eq. (3) sheds, early drops, value-
  /// floor sheds) after it has been tallied. The simulator and the live
  /// engine wire this to Client::add_server_drop, whose per-run ledger
  /// decides when a run retires; null by default.
  using DropSink = std::function<void(const SliceRun& run,
                                      std::size_t run_index,
                                      std::int64_t slices)>;
  void set_drop_sink(DropSink sink) { drop_sink_ = std::move(sink); }

  /// Installs the telemetry handle (null by default: no cost). The server
  /// records per-step occupancy, send/retransmit/write-off counters, and a
  /// "policy.drop" Span around each Eq. (3) shed. Instruments are resolved
  /// once here, so the per-step cost with telemetry on is plain pointer
  /// arithmetic, not map lookups.
  void set_telemetry(obs::Telemetry telemetry);

 private:
  struct RetxEntry {
    SentPiece piece;
    Time ready_at = 0;  ///< earliest retransmission step (backoff applied)
  };

  void account_drop(const SliceRun& run, std::size_t run_index,
                    std::int64_t slices, Time t);
  void write_off(const SentPiece& piece);
  void handle_nack(const Nack& nack, Time t);
  /// Sends due retransmissions (FIFO, whole pieces) within `budget` bytes;
  /// returns the bytes consumed.
  Bytes send_retransmissions(Time t, Bytes budget,
                             std::vector<SentPiece>& out);

  ServerConfig config_;
  std::unique_ptr<DropPolicy> policy_;
  ServerBuffer buffer_;
  /// Ring sized from the retry budget at construction (DESIGN.md Sect. 12);
  /// grows only if a run exceeds the estimate, never in steady state.
  RingBuffer<RetxEntry> retx_queue_;
  LinkLossSink loss_sink_;
  DropSink drop_sink_;
  obs::Telemetry telemetry_;
  // Instruments resolved by set_telemetry(); null while telemetry is off.
  obs::Counter* sent_bytes_ = nullptr;
  obs::Counter* retx_bytes_ = nullptr;
  obs::Counter* nacks_seen_ = nullptr;
  obs::Counter* shed_events_ = nullptr;
  obs::Counter* written_off_bytes_ = nullptr;
  obs::Histogram* occupancy_hist_ = nullptr;
  obs::Gauge* max_occupancy_ = nullptr;
  SimReport* current_report_ = nullptr;
  ScheduleRecorder* current_rec_ = nullptr;
  Time now_ = 0;
  std::int64_t step_nacks_ = 0;  ///< NACKs seen this step, for telemetry
};

}  // namespace rtsmooth

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
// policy, which is what makes Theorem 3.5 policy-independent. The server
// is the first stage of the shared step (core/pipeline.h) and every hop of
// a tandem path (tandem/tandem.h). It books drops from its buffer's drop
// log after each policy call, so it holds no pointer to itself and moves
// like any value.

// Recovery extension (not in the paper; see DESIGN.md "Fault model &
// recovery semantics"): on a lossy link, erased pieces come back as NACKs.
// A NACKed piece is retransmitted — with exponential backoff in slots and a
// bounded retry budget — only while the copy can still arrive by its playout
// deadline AT + P + D, i.e. while the retransmission step is <= AT + D.
// Anything else is written off into the client's per-run ledger, so the
// report's conservation invariant keeps holding byte-for-byte under faults.
// Retransmissions take priority over fresh data inside the same link rate R,
// so recovery degrades throughput instead of violating Eq. (2).

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/client.h"
#include "core/drop_policy.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/schedule.h"
#include "core/server_buffer.h"
#include "core/slice.h"
#include "core/types.h"
#include "obs/telemetry.h"
#include "util/assert.h"
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

  /// A step is begin_step(), admit() per arrival, then finish_step(). The
  /// shared step (core/pipeline.h) and the tandem's hops are the callers.
  ///
  /// Opens step t: NACK triage, then pro-active (early) drops on the
  /// pre-arrival state. Drop tallies accumulate into `report`. Every server
  /// drop and link write-off is booked into `client`'s per-run ledger,
  /// which decides when a run retires; per-run outcomes go to `rec` if
  /// given.
  void begin_step(Time t, std::span<const Nack> nacks, SimReport& report,
                  Client& client, ScheduleRecorder* rec);
  /// Pushes `slices` slices of `run` into the buffer under identity
  /// `run_index`: a whole arrival, or a piece a tandem hop forwards. Only
  /// valid between begin_step() and finish_step(), after the client
  /// admitted the run. The offered tally is the caller's
  /// (SimReport::add_offered), where the run enters the system.
  void admit(const SliceRun& run, std::size_t run_index,
             std::int64_t slices) {
    RTS_EXPECTS(current_report_ != nullptr);
    buffer_.push(run, run_index, slices);
  }
  /// Retransmits due pieces, sheds per Eq. (3), and sends per Eq. (2);
  /// submitted pieces are appended to `out`, which callers recycle across
  /// steps so the step allocates nothing.
  void finish_step(std::vector<SentPiece>& out);

  /// Degradation hook (the daemon's overload ladder, DESIGN.md Sect. 13):
  /// drops every droppable slice whose byte value is <= `floor`, using the
  /// same greedy-shed template the value-aware policies use, and books the
  /// drops like any other server drop. Only valid between begin_step() and
  /// finish_step(). Returns what was dropped.
  DropResult shed_below_value(double floor);

  const ServerBuffer& buffer() const { return buffer_; }
  const ServerConfig& config() const { return config_; }
  const DropPolicy& policy() const { return *policy_; }
  /// Everything this server has dropped (a tandem's per-hop drops).
  const Tally& dropped() const { return dropped_; }

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

  /// Installs the telemetry handle (null by default: no cost). The server
  /// records per-step occupancy, send/retransmit/write-off counters, and
  /// counts every Eq. (3) shed in "server.shed_events". Instruments are
  /// resolved once here, so the per-step cost with telemetry on is plain
  /// pointer arithmetic, not map lookups. The "policy.drop" timer is the
  /// exception: it is resolved on the first shed (a run that never sheds
  /// has none) and times one shed in kDropTimerPeriod, the first always,
  /// so its count is the number of sampled sheds, not of sheds.
  void set_telemetry(obs::Telemetry telemetry);

  /// Sampling period of the "policy.drop" timer: two clock reads cost more
  /// than a typical shed.
  static constexpr std::int64_t kDropTimerPeriod = 64;

 private:
  struct RetxEntry {
    SentPiece piece;
    Time ready_at = 0;  ///< earliest retransmission step (backoff applied)
  };

  /// Books the buffer's drop log into the report, the client ledger, the
  /// recorder and dropped(), then clears it. Called after every policy
  /// call; an empty log costs one test.
  void book_drops() {
    if (!buffer_.drop_log().empty()) book_drop_log();
  }
  void book_drop_log();
  /// Counts an Eq. (3) shed and returns the timer it records into: the
  /// "policy.drop" timer on sampled sheds, null on the rest and while
  /// telemetry is off.
  obs::Histogram* count_shed();
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
  obs::Registry* registry_ = nullptr;
  // Instruments resolved by set_telemetry(); null while telemetry is off.
  obs::Counter* sent_bytes_ = nullptr;
  obs::Counter* retx_bytes_ = nullptr;
  obs::Counter* nacks_seen_ = nullptr;
  obs::Counter* shed_events_ = nullptr;
  obs::Counter* written_off_bytes_ = nullptr;
  obs::Histogram* occupancy_hist_ = nullptr;
  obs::Gauge* max_occupancy_ = nullptr;
  obs::Histogram* drop_timer_ = nullptr;  ///< resolved on the first shed
  std::int64_t sheds_ = 0;  ///< Eq. (3) sheds counted, for the sampling
  Tally dropped_;
  // Bound by begin_step() for the duration of one step.
  SimReport* current_report_ = nullptr;
  Client* current_client_ = nullptr;
  ScheduleRecorder* current_rec_ = nullptr;
  Time now_ = 0;
  std::int64_t step_nacks_ = 0;  ///< NACKs seen this step, for telemetry
};

}  // namespace rtsmooth

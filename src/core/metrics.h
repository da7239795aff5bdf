// Performance measures of a smoothing schedule (paper Definition 2.4 and the
// experimental metrics of Sect. 5).

#pragma once

#include <array>
#include <iosfwd>

#include "core/slice.h"
#include "core/types.h"

namespace rtsmooth {

/// Byte/weight/slice tallies for one disposition class (offered, played,
/// dropped at the server, ...).
struct Tally {
  Bytes bytes = 0;
  Weight weight = 0.0;
  std::int64_t slices = 0;

  void add(Bytes b, Weight w, std::int64_t n) {
    bytes += b;
    weight += w;
    slices += n;
  }
  Tally& operator+=(const Tally& o) {
    add(o.bytes, o.weight, o.slices);
    return *this;
  }
  bool operator==(const Tally&) const = default;
};

/// Counts of steps on which one of the paper's guarantees (Lemmas 3.2-3.4)
/// failed to hold. On the paper's lossless constant-delay link these are all
/// provably zero; a faulty channel violates them *gracefully* — the
/// InvariantMonitor (src/faults/) records how often instead of aborting.
struct InvariantViolations {
  std::int64_t server_occupancy = 0;  ///< |Bs(t)| exceeded B after a step
  std::int64_t server_sojourn = 0;    ///< a buffered byte older than B/R (Lemma 3.2)
  std::int64_t client_overflow = 0;   ///< steps with client-side eviction (Lemma 3.4)
  std::int64_t client_underflow = 0;  ///< steps with late bytes or a partial
                                      ///< slice at playout (Lemma 3.3)
  Time first = kNever;                ///< step of the earliest violation

  std::int64_t total() const {
    return server_occupancy + server_sojourn + client_overflow +
           client_underflow;
  }
  bool any() const { return total() > 0; }

  InvariantViolations& operator+=(const InvariantViolations& o);
  bool operator==(const InvariantViolations&) const = default;
};

/// Aggregate report of one simulated schedule.
///
/// Conservation invariant (checked by `conserves()`): every offered slice is
/// either played, dropped at the server, dropped at the client (overflow or
/// deadline miss), lost on the link and written off, or resident at end of
/// simulation.
struct SimReport {
  Tally offered;
  Tally played;
  Tally dropped_server;          ///< server overflow + proactive early drops
  Tally dropped_client_overflow; ///< client buffer full on delivery
  Tally dropped_client_late;     ///< bytes delivered after playout deadline
  Tally lost_link;               ///< erased in flight, written off by recovery
  Tally residual;                ///< still in flight / buffered at end

  /// Per frame type (I/P/B/Other), offered and played, for the weighted-loss
  /// breakdowns of Sect. 5.
  std::array<Tally, 4> offered_by_type{};
  std::array<Tally, 4> played_by_type{};

  /// Resource requirements actually observed (Definition 2.4): least upper
  /// bounds over the run.
  Bytes max_server_occupancy = 0;
  Bytes max_client_occupancy = 0;
  Bytes max_link_bytes_per_step = 0;

  Time steps = 0;  ///< simulated steps (arrival horizon + drain)

  /// Fault/recovery observables (all zero on a lossless link).
  Bytes retransmitted_bytes = 0;  ///< bytes re-sent by the recovery path
  Time stall_steps = 0;           ///< steps the client spent rebuffering
  /// Peak deadline miss in steps: how far past its playout slot the latest
  /// byte written off as dropped_client_late arrived. 0 when the schedule
  /// met every deadline (the paper's lossless-link guarantee).
  Time max_lateness = 0;
  InvariantViolations invariants; ///< recorded by the InvariantMonitor

  /// Tallies `run` as offered, where it enters the system (the pipeline's
  /// admission, the tandem's source). Inline: it runs once per arrival.
  void add_offered(const SliceRun& run) {
    offered.add(run.total_bytes(), run.total_weight(), run.count);
    offered_by_type[static_cast<std::size_t>(run.frame_type)].add(
        run.total_bytes(), run.total_weight(), run.count);
  }

  /// The paper's weighted loss (Sect. 5): lost weight / offered weight.
  double weighted_loss() const;
  /// Benefit as a fraction of the total offered weight (Fig. 4's y axis).
  double benefit_fraction() const;
  /// Unweighted byte loss fraction.
  double byte_loss() const;
  /// Throughput (Definition 2.4): bytes played out.
  Bytes throughput() const { return played.bytes; }
  Weight benefit() const { return played.weight; }

  bool conserves() const;

  SimReport& operator+=(const SimReport& o);
  /// Exact field-wise equality — the "byte-identical reports" contract the
  /// zero-fault identity tests pin (faulty links at severity 0 must be
  /// indistinguishable from FixedDelayLink).
  bool operator==(const SimReport&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SimReport& r);

}  // namespace rtsmooth

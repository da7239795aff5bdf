// Fault-injection links (DESIGN.md "Fault model & recovery semantics").
//
// The paper's channel (Sect. 2, Fig. 1) is lossless with constant delay P;
// Sect. 6 leaves jittery and faulty channels open. Two decorators inject
// the classic impairments around *any* inner link, so they compose with
// each other and with BoundedJitterLink:
//
//   ScheduledFaultLink — a fault program (faults/fault_schedule.h): i.i.d.
//                        per-piece loss and a deliverable-rate cap per
//                        phase, optionally cyclic. A constant erasure or
//                        throttle is a one-phase program.
//   GilbertElliottLink — bursty loss from a 2-state good/bad Markov chain
//
// Both are seeded and deterministic. At severity zero (loss 0 and no cap,
// always-good) each is byte-identical to its inner link — a test pins exact
// SimReport equality against FixedDelayLink on the reference clip.
//
// Loss feedback: an erased piece becomes a Nack surfaced to the server at
// (would-be delivery time) + feedback_delay, modelling a client-side gap
// detector plus the reverse path; both links queue them in a NackQueue. The
// links never retransmit on their own — that decision (deadline check,
// retry budget, backoff) belongs to the server's recovery path in
// core/generic_algorithm.h.

#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/link.h"
#include "core/types.h"
#include "util/rng.h"

namespace rtsmooth::faults {

/// The feedback pipe of a lossy link: the Nack of every erased piece, due at
/// its would-be delivery step plus the feedback delay. Losses are pushed in
/// submission order and the delay is constant, so due steps never decrease
/// and the head is always the earliest due.
class NackQueue {
 public:
  void push(Time due, Nack nack) {
    pending_.push_back(Pending{.due = due, .nack = std::move(nack)});
  }
  /// Removes and returns the NACKs due at or before step t.
  std::vector<Nack> drain_due(Time t);
  /// The head NACK's due step; kNever when none is pending.
  Time next_due() const {
    return pending_.empty() ? kNever : pending_.front().due;
  }
  bool empty() const { return pending_.empty(); }

 private:
  struct Pending {
    Time due;
    Nack nack;
  };
  std::deque<Pending> pending_;
};

/// Parameters of the Gilbert-Elliott two-state loss chain. The state
/// advances once per step; pieces submitted in a step see that step's state.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  ///< per-step transition Good -> Bad
  double p_bad_to_good = 1.0;  ///< per-step transition Bad -> Good
  double loss_good = 0.0;      ///< erasure probability while Good
  double loss_bad = 1.0;       ///< erasure probability while Bad (outage)
};

/// Bursty good/bad outage channel. With p_good_to_bad = 0 (always-good) it
/// is byte-identical to its inner link. Mean burst length in steps is
/// 1 / p_bad_to_good.
class GilbertElliottLink final : public Link {
 public:
  /// `feedback_delay` < 0 means "one propagation delay" (symmetric reverse
  /// path): the NACK reaches the server at t + 2 * inner->min_delay().
  GilbertElliottLink(std::unique_ptr<Link> inner, GilbertElliottConfig config,
                     Rng rng, Time feedback_delay = -1);
  /// Convenience: the chain over a FixedDelayLink(propagation_delay).
  GilbertElliottLink(Time propagation_delay, GilbertElliottConfig config,
                     Rng rng, Time feedback_delay = -1);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  std::vector<Nack> collect_nacks(Time t) override {
    return nacks_.drain_due(t);
  }
  bool idle() const override { return inner_->idle() && nacks_.empty(); }
  Time min_delay() const override { return inner_->min_delay(); }
  /// Inner deliveries plus the head pending NACK. The loss chain itself
  /// needs no bounding event: it only touches pieces at submit time, and
  /// ensure_state() catches up lazily with identical RNG draws, so skipped
  /// spans cannot change what it erases.
  Time next_activity(Time now) const override;
  /// Replays the chain through the skipped span — the deliver() polls one
  /// live step per slot would have issued — so transition draws and burst-
  /// length records land exactly as they would have, step by step.
  void advance_to(Time t) override {
    ensure_state(t);
    inner_->advance_to(t);
  }
  /// Counts erased pieces/bytes and each completed Bad-state burst length in
  /// steps ("link.bad_burst_steps"). Forwards to the inner link.
  void set_telemetry(obs::Telemetry telemetry) override;

  bool in_bad_state() const { return bad_; }

 private:
  void ensure_state(Time t);

  std::unique_ptr<Link> inner_;
  GilbertElliottConfig config_;
  Rng rng_;
  Time feedback_delay_;
  bool bad_ = false;
  Time state_time_ = -1;  ///< last step the chain was advanced to
  NackQueue nacks_;
  obs::Counter* erased_pieces_ = nullptr;
  obs::Counter* erased_bytes_ = nullptr;
  obs::Histogram* bad_burst_hist_ = nullptr;
  Time bad_since_ = -1;  ///< step the current Bad burst began
};

}  // namespace rtsmooth::faults

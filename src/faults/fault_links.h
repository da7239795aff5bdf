// Fault-injection links (DESIGN.md "Fault model & recovery semantics").
//
// The paper's channel (Sect. 2, Fig. 1) is lossless with constant delay P;
// Sect. 6 leaves jittery and faulty channels open. These decorators inject
// the three classic impairments around *any* inner link, so they compose
// with each other and with BoundedJitterLink:
//
//   ErasureLink        — i.i.d. per-piece loss with probability p
//   GilbertElliottLink — bursty loss from a 2-state good/bad Markov chain
//   ThrottledLink      — time-varying deliverable rate (congestion/outage)
//
// All are seeded and deterministic. At severity zero (p = 0, always-good,
// cap >= R) each is byte-identical to its inner link — a test pins exact
// SimReport equality against FixedDelayLink on the reference clip.
//
// Loss feedback: an erased piece becomes a Nack surfaced to the server at
// (would-be delivery time) + feedback_delay, modelling a client-side gap
// detector plus the reverse path. The links never retransmit on their own —
// that decision (deadline check, retry budget, backoff) belongs to the
// server's recovery path in core/generic_algorithm.h.

#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/link.h"
#include "core/types.h"
#include "util/rng.h"

namespace rtsmooth::faults {

/// I.i.d. per-piece erasure: each submitted piece is lost with probability
/// `loss_probability`, independently. Lost pieces are NACKed.
class ErasureLink final : public Link {
 public:
  /// `feedback_delay` < 0 means "one propagation delay" (symmetric reverse
  /// path): the NACK reaches the server at t + 2 * inner->min_delay().
  ErasureLink(std::unique_ptr<Link> inner, double loss_probability, Rng rng,
              Time feedback_delay = -1);
  /// Convenience: erasures over a FixedDelayLink(propagation_delay).
  ErasureLink(Time propagation_delay, double loss_probability, Rng rng,
              Time feedback_delay = -1);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  std::vector<Nack> collect_nacks(Time t) override;
  bool idle() const override { return inner_->idle() && pending_nacks_.empty(); }
  Time min_delay() const override { return inner_->min_delay(); }
  /// Inner deliveries plus the head pending NACK's feedback-due step.
  Time next_activity(Time now) const override;
  void advance_to(Time t) override { inner_->advance_to(t); }
  /// Counts erased pieces/bytes and the length of each consecutive-erasure
  /// run ("link.loss_run", flushed when a piece survives). Forwards to the
  /// inner link.
  void set_telemetry(obs::Telemetry telemetry) override;

  double loss_probability() const { return p_; }

 private:
  std::unique_ptr<Link> inner_;
  double p_;
  Rng rng_;
  Time feedback_delay_;
  struct PendingNack {
    Time at;
    Nack nack;
  };
  std::deque<PendingNack> pending_nacks_;
  obs::Counter* erased_pieces_ = nullptr;
  obs::Counter* erased_bytes_ = nullptr;
  obs::Histogram* loss_run_hist_ = nullptr;
  std::int64_t loss_run_ = 0;  ///< consecutive erased pieces, not yet flushed
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
  GilbertElliottLink(std::unique_ptr<Link> inner, GilbertElliottConfig config,
                     Rng rng, Time feedback_delay = -1);
  GilbertElliottLink(Time propagation_delay, GilbertElliottConfig config,
                     Rng rng, Time feedback_delay = -1);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  std::vector<Nack> collect_nacks(Time t) override;
  bool idle() const override { return inner_->idle() && pending_nacks_.empty(); }
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
  /// steps ("link.loss_run"). Forwards to the inner link.
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
  struct PendingNack {
    Time at;
    Nack nack;
  };
  std::deque<PendingNack> pending_nacks_;
  obs::Counter* erased_pieces_ = nullptr;
  obs::Counter* erased_bytes_ = nullptr;
  obs::Histogram* loss_run_hist_ = nullptr;
  Time bad_since_ = -1;  ///< step the current Bad burst began
};

/// Time-varying deliverable rate: at step t at most
/// `rate_pattern[t % rate_pattern.size()]` bytes enter the inner link;
/// the excess queues (FIFO) and drains as capacity returns. Models
/// congestion dips and outage windows (a 0 entry is a full stall). Never
/// loses data — severe throttling shows up as deadline misses at the
/// client, not as NACKs.
class ThrottledLink final : public Link {
 public:
  ThrottledLink(std::unique_ptr<Link> inner, std::vector<Bytes> rate_pattern);
  /// Convenience: a constant cap over a FixedDelayLink(propagation_delay).
  ThrottledLink(Time propagation_delay, Bytes rate_cap);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  bool idle() const override { return inner_->idle() && queued_ == 0; }
  Time min_delay() const override { return inner_->min_delay(); }
  /// Inner deliveries, plus — while bytes are queued at the throttle — the
  /// next step whose cap admits them into the inner link (the pattern has a
  /// positive entry, so the scan over one period always finds it).
  Time next_activity(Time now) const override;
  void advance_to(Time t) override { inner_->advance_to(t); }
  /// Tracks the throttle backlog high-watermark and piece splits at the cap.
  /// Forwards to the inner link.
  void set_telemetry(obs::Telemetry telemetry) override;

  Bytes cap_at(Time t) const;

 private:
  std::unique_ptr<Link> inner_;
  std::vector<Bytes> pattern_;
  std::deque<SentPiece> pending_;
  Bytes queued_ = 0;
  obs::Counter* split_pieces_ = nullptr;
  obs::Gauge* max_backlog_ = nullptr;
};

}  // namespace rtsmooth::faults

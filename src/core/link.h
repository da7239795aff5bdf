// The communication link (paper Sect. 2, Fig. 1): lossless, FIFO, with a
// constant per-byte propagation delay P. Rate limiting happens at the
// *server* (Eq. (2)); the link merely delays what it is given.
//
// `BoundedJitterLink` is the extension discussed as an open problem in
// Sect. 6: per-step delay P + j(t) with 0 <= j(t) <= J, FIFO order
// preserved. The paper's analysis assumes J = 0; the jitter ablation bench
// measures how much extra client budget restores losslessness.
//
// Faulty channels (erasures, outage bursts, throttling — the rest of the
// Sect. 6 open problems) live in src/faults/. The base interface carries the
// feedback path they need: a link that loses a piece surfaces it as a `Nack`
// once the loss becomes knowable at the server, and the server's recovery
// path (core/generic_algorithm.h) decides whether a retransmission can still
// make the playout deadline. Lossless links never produce NACKs.

#pragma once

#include <memory>
#include <vector>

#include "core/server_buffer.h"
#include "core/types.h"
#include "obs/telemetry.h"
#include "util/ring_buffer.h"
#include "util/rng.h"

namespace rtsmooth {

/// Feedback-path report of a piece the link definitively lost. The lost copy
/// never reaches the client; `piece.retx_attempt` counts how many times this
/// data had already been retransmitted when it was lost.
struct Nack {
  SentPiece piece;
  Time sent_at = 0;  ///< step the lost copy entered the link
};

/// Abstract FIFO pipe. Bytes submitted at step t are delivered at
/// step >= t + min_delay(), in submission order. Lossy implementations may
/// silently drop pieces in flight; every dropped piece must eventually be
/// surfaced through collect_nacks() exactly once.
class Link {
 public:
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Accepts the pieces sent at step t.
  virtual void submit(Time t, std::vector<SentPiece> pieces) = 0;

  /// All pieces delivered at step t. Steps must be polled in increasing
  /// order.
  virtual std::vector<SentPiece> deliver(Time t) = 0;

  /// Loss reports whose feedback reaches the server at step t (loss
  /// detection time plus the reverse-path delay). Polled once per step, in
  /// increasing order of t, like deliver(). Lossless links return nothing.
  virtual std::vector<Nack> collect_nacks(Time t) {
    (void)t;
    return {};
  }

  /// Nothing in flight — including losses whose NACK is still in the
  /// feedback pipe.
  virtual bool idle() const = 0;
  virtual Time min_delay() const = 0;

  /// Earliest step >= now at which this link could deliver pieces or
  /// surface NACKs, assuming nothing further is submitted; kNever if it can
  /// stay silent forever. Conservative (early) answers are allowed — the
  /// simulator just takes a live step and asks again — but claiming
  /// silence while activity is possible is not. The default assumes any
  /// non-idle link may act on the very next step, which is always safe.
  virtual Time next_activity(Time now) const {
    return idle() ? kNever : now + 1;
  }

  /// Advances link-internal clocks to step t without transferring data,
  /// with exactly the side effects polling deliver() once per step through
  /// t would have on an idle span (RNG draws, telemetry records). Only
  /// links whose state evolves with time rather than traffic — the
  /// Gilbert-Elliott loss chain — do anything here; decorators must forward
  /// to their inner link. The simulator calls this when absorbing a
  /// skipped quiescent span.
  virtual void advance_to(Time t) { (void)t; }

  /// Installs a telemetry handle. The base links record nothing (the
  /// simulator already traces deliveries); fault links override this to
  /// count erasures and loss runs. Decorators must forward to their inner
  /// link.
  virtual void set_telemetry(obs::Telemetry telemetry) { (void)telemetry; }

 protected:
  Link() = default;
};

/// Constant-delay link: the paper's model. Link delay of every byte is
/// exactly P, so R(t) = S(t - P).
///
/// In-flight batches sit in a ring sized P + 2 up front: at most one batch
/// is submitted per step and each lives exactly P steps, so the ring never
/// grows and submit/deliver never allocate. deliver() moves the stored
/// piece vector back out, which lets the simulator recycle one vector
/// through server -> link -> client indefinitely (DESIGN.md Sect. 12).
class FixedDelayLink final : public Link {
 public:
  explicit FixedDelayLink(Time propagation_delay);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  bool idle() const override { return in_flight_.empty(); }
  Time min_delay() const override { return p_; }
  /// Exact: the head batch's delivery step (batches are FIFO in time).
  Time next_activity(Time now) const override {
    (void)now;
    return in_flight_.empty() ? kNever : in_flight_.front().deliver_at;
  }

 private:
  struct Batch {
    Time deliver_at = 0;
    std::vector<SentPiece> pieces;
  };
  Time p_;
  RingBuffer<Batch> in_flight_;
};

/// Link with bounded random extra delay: each step's batch is delayed
/// P + j, j uniform on {0..J}, clamped so delivery times never reorder
/// (FIFO preserved, as a jitter-control algorithm would enforce [21]).
class BoundedJitterLink final : public Link {
 public:
  BoundedJitterLink(Time propagation_delay, Time max_jitter, Rng rng);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  bool idle() const override { return in_flight_.empty(); }
  Time min_delay() const override { return p_; }
  /// Exact: the FIFO clamp makes the head batch the earliest delivery.
  Time next_activity(Time now) const override {
    (void)now;
    return in_flight_.empty() ? kNever : in_flight_.front().deliver_at;
  }
  Time max_jitter() const { return j_; }

 private:
  struct Batch {
    Time deliver_at = 0;
    std::vector<SentPiece> pieces;
  };
  Time p_;
  Time j_;
  Rng rng_;
  Time last_delivery_ = -1;
  /// Ring sized P + J + 2: one submission per step, each in flight for at
  /// most P + J steps (plus the same-step submit-before-deliver overlap).
  RingBuffer<Batch> in_flight_;
};

}  // namespace rtsmooth

// Fault programs (DESIGN.md Sect. 8 and 13): the piecewise-constant fault
// schedule that is the repo's one decorator for erasure and rate caps.
//
// A program is a sorted list of phases; from `phase.from` onward, pieces
// are erased i.i.d. with `loss_probability` (NACKed back to the server
// through a NackQueue) and at most `rate_cap` bytes per step enter the
// inner link (the excess queues FIFO, split at the cap; -1 = uncapped, 0 =
// a full stall). An optional `period` makes the program cyclic — phase
// lookup uses t mod period — so a soak of unbounded length keeps flipping
// between calm and impaired regimes. The classic impairments are short
// programs:
//
//   constant i.i.d. erasure p    {{0, p, -1}}
//   constant rate cap c          {{0, 0, c}}
//   periodic cap pattern         one phase per run of equal entries, with
//                                the pattern's length as the period
//
// At loss 0 / cap -1 a phase is byte-identical to the inner link.

#pragma once

#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "core/link.h"
#include "core/types.h"
#include "faults/fault_links.h"
#include "util/rng.h"

namespace rtsmooth::faults {

struct FaultPhase {
  Time from = 0;                ///< first step this phase applies to
  double loss_probability = 0.0;
  Bytes rate_cap = -1;          ///< bytes/step admitted; -1 = uncapped
};

class ScheduledFaultLink final : public Link {
 public:
  /// `phases` must be non-empty with strictly increasing `from`, starting
  /// at 0. `period` > 0 repeats the program every `period` steps (every
  /// phase.from must then be < period); 0 = one-shot. `feedback_delay` < 0
  /// means "one propagation delay" (symmetric reverse path): a NACK reaches
  /// the server at t + 2 * inner->min_delay().
  ScheduledFaultLink(std::unique_ptr<Link> inner,
                     std::vector<FaultPhase> phases, Rng rng,
                     Time feedback_delay = -1, Time period = 0);
  /// Convenience: the program over a FixedDelayLink(propagation_delay).
  ScheduledFaultLink(Time propagation_delay, std::vector<FaultPhase> phases,
                     Rng rng, Time feedback_delay = -1, Time period = 0);

  void submit(Time t, std::vector<SentPiece> pieces) override;
  std::vector<SentPiece> deliver(Time t) override;
  std::vector<Nack> collect_nacks(Time t) override {
    return nacks_.drain_due(t);
  }
  bool idle() const override {
    return inner_->idle() && queued_ == 0 && nacks_.empty();
  }
  Time min_delay() const override { return inner_->min_delay(); }
  /// The earliest of the inner link's next activity, the head NACK's due
  /// step and — while bytes are queued at the cap — the next step whose
  /// phase cap is not 0. A program in which no phase ever opens again
  /// answers now + 1: it is never reported silent.
  Time next_activity(Time now) const override;
  void advance_to(Time t) override { inner_->advance_to(t); }
  /// Counts erased pieces/bytes ("link.erased_pieces"/"link.erased_bytes"),
  /// piece splits at the cap ("link.split_pieces") and the cap backlog's
  /// high-watermark ("link.max_backlog"), all registered here. The
  /// "link.loss_run" histogram of consecutive erased pieces is created on
  /// the first completed run, so a run without one has none; a run still
  /// open when the stream ends is not recorded, as it has no defined end.
  /// Forwards to the inner link.
  void set_telemetry(obs::Telemetry telemetry) override;

  const FaultPhase& phase_at(Time t) const;

 private:
  /// Earliest step >= now whose phase cap admits bytes; now + 1 if none.
  Time next_open_step(Time now) const;
  void end_loss_run();

  std::unique_ptr<Link> inner_;
  std::vector<FaultPhase> phases_;
  Rng rng_;
  Time feedback_delay_;
  Time period_;
  NackQueue nacks_;
  std::deque<SentPiece> pending_;
  Bytes queued_ = 0;
  obs::Registry* registry_ = nullptr;
  obs::Counter* erased_pieces_ = nullptr;
  obs::Counter* erased_bytes_ = nullptr;
  obs::Counter* split_pieces_ = nullptr;
  obs::Gauge* max_backlog_ = nullptr;
  obs::Histogram* loss_run_hist_ = nullptr;
  std::int64_t loss_run_ = 0;  ///< consecutive erased pieces, not yet recorded
};

/// Parses "from:loss:cap[,from:loss:cap...]" (e.g. "0:0:-1,5000:0.3:-1,
/// 8000:0:256") into a phase list; throws std::invalid_argument naming the
/// offending token on malformed input, non-ascending times, loss outside
/// [0, 1] (NaN included) or, when `period` > 0, a phase starting at or
/// after the period.
std::vector<FaultPhase> parse_fault_schedule(std::string_view text,
                                             Time period = 0);

}  // namespace rtsmooth::faults

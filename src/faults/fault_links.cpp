#include "faults/fault_links.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::faults {

std::vector<Nack> NackQueue::drain_due(Time t) {
  std::vector<Nack> out;
  while (!pending_.empty() && pending_.front().due <= t) {
    out.push_back(std::move(pending_.front().nack));
    pending_.pop_front();
  }
  return out;
}

GilbertElliottLink::GilbertElliottLink(std::unique_ptr<Link> inner,
                                       GilbertElliottConfig config, Rng rng,
                                       Time feedback_delay)
    : inner_(std::move(inner)),
      config_(config),
      rng_(rng),
      feedback_delay_(feedback_delay >= 0 ? feedback_delay
                                          : inner_->min_delay()) {
  RTS_EXPECTS(inner_ != nullptr);
  RTS_EXPECTS(config.p_good_to_bad >= 0.0 && config.p_good_to_bad <= 1.0);
  RTS_EXPECTS(config.p_bad_to_good >= 0.0 && config.p_bad_to_good <= 1.0);
  RTS_EXPECTS(config.loss_good >= 0.0 && config.loss_good <= 1.0);
  RTS_EXPECTS(config.loss_bad >= 0.0 && config.loss_bad <= 1.0);
}

GilbertElliottLink::GilbertElliottLink(Time propagation_delay,
                                       GilbertElliottConfig config, Rng rng,
                                       Time feedback_delay)
    : GilbertElliottLink(std::make_unique<FixedDelayLink>(propagation_delay),
                         config, rng, feedback_delay) {}

void GilbertElliottLink::set_telemetry(obs::Telemetry telemetry) {
  inner_->set_telemetry(telemetry);
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  erased_pieces_ = &reg.counter("link.erased_pieces");
  erased_bytes_ = &reg.counter("link.erased_bytes");
  bad_burst_hist_ = &reg.histogram("link.bad_burst_steps",
                                   obs::HistogramSpec::exponential(1, 16));
}

void GilbertElliottLink::ensure_state(Time t) {
  // One transition draw per elapsed step, so the burst-length distribution
  // is independent of traffic (an idle channel still churns states).
  while (state_time_ < t) {
    ++state_time_;
    if (state_time_ == 0) continue;  // initial state is Good by convention
    const double flip =
        bad_ ? config_.p_bad_to_good : config_.p_good_to_bad;
    if (flip > 0.0 && rng_.bernoulli(flip)) {
      bad_ = !bad_;
      if (bad_burst_hist_ != nullptr) {
        if (bad_) {
          bad_since_ = state_time_;
        } else if (bad_since_ >= 0) {
          // Burst over: its length in steps is the "link.bad_burst_steps"
          // sample.
          bad_burst_hist_->record(state_time_ - bad_since_);
          bad_since_ = -1;
        }
      }
    }
  }
}

void GilbertElliottLink::submit(Time t, std::vector<SentPiece> pieces) {
  ensure_state(t);
  const double loss = bad_ ? config_.loss_bad : config_.loss_good;
  std::vector<SentPiece> kept;
  kept.reserve(pieces.size());
  for (SentPiece& piece : pieces) {
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      // The loss becomes knowable once the piece fails to arrive; feedback
      // takes feedback_delay more steps to reach the server.
      if (erased_pieces_ != nullptr) {
        erased_pieces_->add(1);
        erased_bytes_->add(piece.bytes);
      }
      nacks_.push(t + inner_->min_delay() + feedback_delay_,
                  Nack{.piece = std::move(piece), .sent_at = t});
      continue;
    }
    kept.push_back(std::move(piece));
  }
  inner_->submit(t, std::move(kept));
}

std::vector<SentPiece> GilbertElliottLink::deliver(Time t) {
  ensure_state(t);
  return inner_->deliver(t);
}

Time GilbertElliottLink::next_activity(Time now) const {
  return std::min(inner_->next_activity(now), nacks_.next_due());
}

}  // namespace rtsmooth::faults

#include "faults/fault_schedule.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::faults {

ScheduledFaultLink::ScheduledFaultLink(std::unique_ptr<Link> inner,
                                       std::vector<FaultPhase> phases,
                                       Rng rng, Time feedback_delay,
                                       Time period)
    : inner_(std::move(inner)),
      phases_(std::move(phases)),
      rng_(rng),
      feedback_delay_(feedback_delay >= 0 ? feedback_delay
                                          : inner_->min_delay()),
      period_(period) {
  RTS_EXPECTS(inner_ != nullptr);
  RTS_EXPECTS(!phases_.empty());
  RTS_EXPECTS(phases_.front().from == 0);
  RTS_EXPECTS(period_ >= 0);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const FaultPhase& p = phases_[i];
    RTS_EXPECTS(p.loss_probability >= 0.0 && p.loss_probability <= 1.0);
    RTS_EXPECTS(p.rate_cap >= -1);
    if (i > 0) RTS_EXPECTS(p.from > phases_[i - 1].from);
    if (period_ > 0) RTS_EXPECTS(p.from < period_);
  }
}

ScheduledFaultLink::ScheduledFaultLink(Time propagation_delay,
                                       std::vector<FaultPhase> phases,
                                       Rng rng, Time feedback_delay,
                                       Time period)
    : ScheduledFaultLink(std::make_unique<FixedDelayLink>(propagation_delay),
                         std::move(phases), rng, feedback_delay, period) {}

const FaultPhase& ScheduledFaultLink::phase_at(Time t) const {
  const Time tm = period_ > 0 ? t % period_ : t;
  // Schedules hold a handful of phases; a reverse linear scan beats keeping
  // a cursor that a cyclic program would have to rewind anyway.
  for (std::size_t i = phases_.size(); i-- > 0;) {
    if (phases_[i].from <= tm) return phases_[i];
  }
  return phases_.front();
}

void ScheduledFaultLink::set_telemetry(obs::Telemetry telemetry) {
  inner_->set_telemetry(telemetry);
  registry_ = telemetry.registry;
  if (registry_ == nullptr) return;
  erased_pieces_ = &registry_->counter("link.erased_pieces");
  erased_bytes_ = &registry_->counter("link.erased_bytes");
  split_pieces_ = &registry_->counter("link.split_pieces");
  max_backlog_ = &registry_->gauge("link.max_backlog");
}

void ScheduledFaultLink::end_loss_run() {
  if (loss_run_hist_ == nullptr) {
    loss_run_hist_ = &registry_->histogram(
        "link.loss_run", obs::HistogramSpec::exponential(1, 16));
  }
  loss_run_hist_->record(loss_run_);
  loss_run_ = 0;
}

void ScheduledFaultLink::submit(Time t, std::vector<SentPiece> pieces) {
  const double loss = phase_at(t).loss_probability;
  for (SentPiece& piece : pieces) {
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      // The loss becomes knowable once the piece fails to arrive; feedback
      // takes feedback_delay more steps to reach the server.
      if (erased_pieces_ != nullptr) {
        erased_pieces_->add(1);
        erased_bytes_->add(piece.bytes);
        ++loss_run_;
      }
      nacks_.push(t + inner_->min_delay() + feedback_delay_,
                  Nack{.piece = std::move(piece), .sent_at = t});
      continue;
    }
    if (loss_run_ > 0) end_loss_run();  // a surviving piece ends the run
    queued_ += piece.bytes;
    pending_.push_back(std::move(piece));
  }
  if (max_backlog_ != nullptr) max_backlog_->update(queued_);
}

std::vector<SentPiece> ScheduledFaultLink::deliver(Time t) {
  const Bytes cap = phase_at(t).rate_cap;
  Bytes budget = cap < 0 ? queued_ : std::min(cap, queued_);
  std::vector<SentPiece> admitted;
  while (budget > 0) {
    RTS_ASSERT(!pending_.empty());
    SentPiece& head = pending_.front();
    if (head.bytes <= budget) {
      budget -= head.bytes;
      queued_ -= head.bytes;
      admitted.push_back(std::move(head));
      pending_.pop_front();
      continue;
    }
    // Split the piece at the cap. Slice completions ride with the tail
    // fragment: a slice finishes only when its last byte gets through, and
    // without intra-piece offsets the tail is the only sound place to count
    // them (the client ignores the field either way).
    SentPiece fragment = head;
    fragment.bytes = budget;
    fragment.completed_slices = 0;
    if (split_pieces_ != nullptr) split_pieces_->add(1);
    head.bytes -= budget;
    queued_ -= budget;
    budget = 0;
    admitted.push_back(fragment);
  }
  inner_->submit(t, std::move(admitted));
  return inner_->deliver(t);
}

Time ScheduledFaultLink::next_activity(Time now) const {
  const Time at = std::min(inner_->next_activity(now), nacks_.next_due());
  return queued_ > 0 ? std::min(at, next_open_step(now)) : at;
}

Time ScheduledFaultLink::next_open_step(Time now) const {
  if (phase_at(now).rate_cap != 0) return now;
  // The cap changes only at phase starts, so the first later start whose
  // cap is not 0 is the answer. Two laps cover a cyclic program: the rest
  // of this one, then every phase of the next.
  const Time lap = period_ > 0 ? now - now % period_ : 0;
  for (const Time base : {lap, lap + period_}) {
    for (const FaultPhase& phase : phases_) {
      if (base + phase.from > now && phase.rate_cap != 0) {
        return base + phase.from;
      }
    }
    if (period_ == 0) break;
  }
  return now + 1;  // no phase ever opens: never claim silence
}

std::vector<FaultPhase> parse_fault_schedule(std::string_view text,
                                             Time period) {
  const auto fail = [](std::string_view token, const char* why) {
    throw std::invalid_argument("fault schedule: " + std::string(why) +
                                " in '" + std::string(token) + "'");
  };
  std::vector<FaultPhase> phases;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) fail(text, "empty phase");
    const std::size_t c1 = token.find(':');
    const std::size_t c2 =
        c1 == std::string_view::npos ? c1 : token.find(':', c1 + 1);
    if (c1 == std::string_view::npos || c2 == std::string_view::npos) {
      fail(token, "expected from:loss:cap");
    }
    FaultPhase phase;
    const std::string_view from_s = token.substr(0, c1);
    const std::string_view loss_s = token.substr(c1 + 1, c2 - c1 - 1);
    const std::string_view cap_s = token.substr(c2 + 1);
    auto r1 = std::from_chars(from_s.data(), from_s.data() + from_s.size(),
                              phase.from);
    if (r1.ec != std::errc{} || r1.ptr != from_s.data() + from_s.size() ||
        phase.from < 0) {
      fail(token, "bad phase start");
    }
    if (period > 0 && phase.from >= period) {
      fail(token, "phase starts at or after the period");
    }
    auto r2 = std::from_chars(loss_s.data(), loss_s.data() + loss_s.size(),
                              phase.loss_probability);
    // Written so that NaN, which compares false to everything, fails it.
    if (r2.ec != std::errc{} || r2.ptr != loss_s.data() + loss_s.size() ||
        !(phase.loss_probability >= 0.0 && phase.loss_probability <= 1.0)) {
      fail(token, "loss probability must be in [0, 1]");
    }
    auto r3 = std::from_chars(cap_s.data(), cap_s.data() + cap_s.size(),
                              phase.rate_cap);
    if (r3.ec != std::errc{} || r3.ptr != cap_s.data() + cap_s.size() ||
        phase.rate_cap < -1) {
      fail(token, "bad rate cap");
    }
    if (!phases.empty() && phase.from <= phases.back().from) {
      fail(token, "phase starts must be strictly increasing");
    }
    phases.push_back(phase);
    if (comma == text.size()) break;
  }
  if (phases.empty() || phases.front().from != 0) {
    throw std::invalid_argument(
        "fault schedule: first phase must start at step 0");
  }
  return phases;
}

}  // namespace rtsmooth::faults

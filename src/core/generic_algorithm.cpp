#include "core/generic_algorithm.h"

#include <algorithm>

// Header-only shed templates; no link-time dependency on rtsmooth_policies.
#include "policies/shed_algorithms.h"
#include "util/assert.h"

namespace rtsmooth {

SmoothingServer::SmoothingServer(ServerConfig config,
                                 std::unique_ptr<DropPolicy> policy)
    : config_(config), policy_(std::move(policy)) {
  RTS_EXPECTS(config_.buffer >= 1);
  RTS_EXPECTS(config_.rate >= 1);
  RTS_EXPECTS(policy_ != nullptr);
  // Capacity formulas (DESIGN.md Sect. 12). Chunks hold >= 1 byte each and
  // same-run pushes merge, so B + one frame's worth of pre-shed overshoot
  // bounds the resident chunk count only loosely — in practice the count
  // tracks resident *runs*; 64 covers every committed workload and the ring
  // doubles transparently if a stream proves wilder. The retransmission
  // queue holds at most the pieces NACKed within one feedback round-trip,
  // each retried at most max_retries times.
  buffer_.reserve_chunks(64);
  if (config_.recovery.enabled) {
    retx_queue_.reserve(
        static_cast<std::size_t>(config_.recovery.max_retries + 1) * 16);
  }
}

void SmoothingServer::book_drop_log() {
  RTS_ASSERT(current_report_ != nullptr);
  for (const DroppedSlices& victim : buffer_.drop_log()) {
    const Bytes bytes = victim.run->slice_size * victim.slices;
    const Weight weight =
        victim.run->weight * static_cast<Weight>(victim.slices);
    current_report_->dropped_server.add(bytes, weight, victim.slices);
    dropped_.add(bytes, weight, victim.slices);
    if (current_rec_ != nullptr) {
      current_rec_->run(victim.run_index).dropped_server += victim.slices;
    }
    current_client_->add_server_drop(victim.run_index, victim.slices,
                                     *current_report_);
  }
  buffer_.clear_drop_log();
}

void SmoothingServer::set_telemetry(obs::Telemetry telemetry) {
  registry_ = telemetry.registry;
  if (registry_ == nullptr) return;
  obs::Registry& reg = *registry_;
  // Eager creation keeps snapshots structurally identical across runs:
  // a lossless run reports server.retx_bytes = 0 rather than omitting it.
  sent_bytes_ = &reg.counter("server.sent_bytes");
  retx_bytes_ = &reg.counter("server.retx_bytes");
  nacks_seen_ = &reg.counter("server.nacks");
  shed_events_ = &reg.counter("server.shed_events");
  written_off_bytes_ = &reg.counter("server.written_off_bytes");
  occupancy_hist_ = &reg.histogram("server.occupancy",
                                   obs::HistogramSpec::exponential(1, 32));
  max_occupancy_ = &reg.gauge("server.max_occupancy");
}

obs::Histogram* SmoothingServer::count_shed() {
  if (shed_events_ == nullptr) return nullptr;
  shed_events_->add(1);
  if (sheds_++ % kDropTimerPeriod != 0) return nullptr;
  if (drop_timer_ == nullptr) drop_timer_ = &registry_->timer("policy.drop");
  return drop_timer_;
}

void SmoothingServer::write_off(const SentPiece& piece) {
  if (written_off_bytes_ != nullptr) written_off_bytes_->add(piece.bytes);
  current_client_->add_link_loss(piece.run_index, piece.bytes,
                                 *current_report_);
}

void SmoothingServer::handle_nack(const Nack& nack, Time t) {
  const RecoveryConfig& cfg = config_.recovery;
  const std::int32_t next_attempt = nack.piece.retx_attempt + 1;
  // Last step a retransmission may leave and still make AT + P + D.
  const Time deadline = nack.piece.run->arrival + cfg.smoothing_delay;
  if (!cfg.enabled || next_attempt > cfg.max_retries) {
    write_off(nack.piece);
    return;
  }
  const Time ready = t + (cfg.backoff_base << (next_attempt - 1));
  if (ready > deadline) {
    write_off(nack.piece);
    return;
  }
  SentPiece copy = nack.piece;
  copy.retx_attempt = next_attempt;
  retx_queue_.push_back(RetxEntry{.piece = copy, .ready_at = ready});
}

Bytes SmoothingServer::send_retransmissions(Time t, Bytes budget,
                                            std::vector<SentPiece>& out) {
  Bytes sent = 0;
  std::size_t i = 0;
  while (i < retx_queue_.size()) {
    const RetxEntry& entry = retx_queue_[i];
    // A queued piece whose deadline has passed can no longer help: write it
    // off regardless of budget so the queue (and the simulation) drains.
    if (t > entry.piece.run->arrival + config_.recovery.smoothing_delay) {
      write_off(entry.piece);
      retx_queue_.erase(i);
      continue;
    }
    if (entry.ready_at > t) {
      ++i;
      continue;
    }
    // Pieces are the atomic loss/retransmit unit; send head-of-line whole or
    // not at all (no reordering past it).
    if (entry.piece.bytes > budget - sent) break;
    sent += entry.piece.bytes;
    out.push_back(entry.piece);
    current_report_->retransmitted_bytes += entry.piece.bytes;
    retx_queue_.erase(i);
  }
  return sent;
}

void SmoothingServer::begin_step(Time t, std::span<const Nack> nacks,
                                 SimReport& report, Client& client,
                                 ScheduleRecorder* rec) {
  RTS_EXPECTS(current_report_ == nullptr);
  now_ = t;
  current_report_ = &report;
  current_client_ = &client;
  current_rec_ = rec;
  step_nacks_ = static_cast<std::int64_t>(nacks.size());

  // Loss feedback arriving this step: retry or write off.
  for (const Nack& nack : nacks) handle_nack(nack, t);

  // Pro-active (early) drops act on the state before this step's arrivals.
  policy_->early_drop(buffer_, config_.buffer, t);
  book_drops();
}

void SmoothingServer::finish_step(std::vector<SentPiece>& out) {
  RTS_EXPECTS(current_report_ != nullptr);
  SimReport& report = *current_report_;
  const Time t = now_;

  // Retransmissions go out first: their deadlines are the closest, and
  // giving them priority within the same rate R keeps Eq. (2)'s link
  // constraint intact — recovery costs fresh throughput, never extra rate.
  // The queue is empty on every step of a lossless run; skip the call
  // outright rather than let it discover emptiness itself.
  const std::size_t out_start = out.size();
  const Bytes retx_sent =
      retx_queue_.empty() ? 0 : send_retransmissions(t, config_.rate, out);

  // Eq. (2): the send size is fixed from the pre-drop occupancy and the
  // rate left after retransmissions.
  const Bytes planned_send =
      std::min(config_.rate - retx_sent, buffer_.occupancy());

  // Eq. (3): shed whole slices until post-send occupancy is at most B.
  const Bytes target = config_.buffer + planned_send;
  if (buffer_.occupancy() > target) {
    const obs::Span drop_span(count_shed());
    policy_->shed(buffer_, target);
    book_drops();
    RTS_ASSERT(buffer_.occupancy() <= target);
  }

  // Transmit in FIFO order at the maximal possible rate.
  const Bytes sent = buffer_.send(planned_send, out);
  RTS_ASSERT(sent == planned_send);
  report.max_link_bytes_per_step =
      std::max(report.max_link_bytes_per_step, retx_sent + sent);
  report.max_server_occupancy =
      std::max(report.max_server_occupancy, buffer_.occupancy());
  if (current_rec_ != nullptr) {
    for (std::size_t i = out_start; i < out.size(); ++i) {
      current_rec_->note_send(out[i].run_index, t, out[i].bytes);
    }
  }
  RTS_ENSURES(buffer_.occupancy() <= config_.buffer);
  if (occupancy_hist_ != nullptr) {
    sent_bytes_->add(sent);
    retx_bytes_->add(retx_sent);
    nacks_seen_->add(step_nacks_);
    // Post-step occupancy distribution, one sample per step; Eq. (3)'s
    // |Bs(t)| <= B shows up as max() <= B.
    occupancy_hist_->record(buffer_.occupancy());
    max_occupancy_->update(buffer_.occupancy());
  }

  current_report_ = nullptr;
  current_client_ = nullptr;
  current_rec_ = nullptr;
}

DropResult SmoothingServer::shed_below_value(double floor) {
  RTS_EXPECTS(floor >= 0.0);
  RTS_EXPECTS(current_report_ != nullptr);
  if (buffer_.empty()) return {};
  const DropResult dropped = shed::greedy_shed(buffer_, 0, floor);
  book_drops();
  return dropped;
}

}  // namespace rtsmooth

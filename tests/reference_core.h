// Tests-only reference implementation of the simulation core — the oracle
// for the differential equivalence suite (test_equivalence.cpp).
//
// The optimized core (ring buffers, recycled piece vectors, monotone playout
// cursor — DESIGN.md Sect. 12) must be *observationally identical* to the
// straightforward implementation it replaced. This header preserves that
// straightforward implementation: std::deque everywhere, a fresh
// std::vector per step, binary-search playout lookup. It is deliberately
// boring — the value of an oracle is that nobody ever optimizes it.
//
// Two rules keep the differential surface honest:
//   1. Policy logic is NOT duplicated: both cores instantiate the same
//      templates from policies/shed_algorithms.h, so a divergence can only
//      come from the data structures under test. Greedy is the exception:
//      the production scan stops at a value floor, so the reference keeps
//      the full scan (forward_greedy_shed below) and the suite checks the
//      stop.
//   2. Reference links subclass the production `Link` interface, so the
//      production fault decorators (ScheduledFaultLink, GilbertElliottLink)
//      wrap them unchanged and the lossy/recovery paths are compared too.
//
// The ReferenceSimulator emits the same JSONL events (config / violation /
// step / run) as SmoothingSimulator given a tracer-only telemetry handle,
// and its SimReport is compared with operator==.

#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/server_buffer.h"
#include "core/slice.h"
#include "core/types.h"
#include "obs/trace_writer.h"
#include "policies/proactive_threshold.h"
#include "policies/shed_algorithms.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/rng.h"

namespace rtsmooth::refcore {

// ---------------------------------------------------------------------------
// Server buffer: deque of chunk descriptors (the pre-ring implementation).
// ---------------------------------------------------------------------------

class ReferenceServerBuffer {
 public:
  Bytes occupancy() const { return occupancy_; }
  bool empty() const { return occupancy_ == 0; }
  std::size_t chunk_count() const { return chunks_.size(); }

  const Chunk& chunk(std::size_t i) const {
    RTS_EXPECTS(i < chunks_.size());
    return chunks_[i];
  }

  std::int64_t droppable_slices(std::size_t i) const {
    const Chunk& c = chunk(i);
    if (i == 0 && c.head_sent > 0) return c.slices - 1;
    return c.slices;
  }

  void push(const SliceRun& run, std::size_t run_index, std::int64_t count) {
    RTS_EXPECTS(count >= 1);
    occupancy_ += run.slice_size * count;
    if (!chunks_.empty() && chunks_.back().run == &run) {
      chunks_.back().slices += count;
      return;
    }
    chunks_.push_back(Chunk{.run = &run, .run_index = run_index,
                            .slices = count, .head_sent = 0});
  }

  DropResult drop_slices(std::size_t i, std::int64_t k) {
    RTS_EXPECTS(i < chunks_.size());
    RTS_EXPECTS(k >= 1 && k <= droppable_slices(i));
    Chunk& c = chunks_[i];
    c.slices -= k;
    const DropResult freed{.bytes = c.run->slice_size * k,
                           .weight = c.run->weight * static_cast<Weight>(k),
                           .slices = k};
    occupancy_ -= freed.bytes;
    RTS_ASSERT(occupancy_ >= 0);
    if (on_drop_) on_drop_(*c.run, c.run_index, k);
    if (c.slices == 0) {
      RTS_ASSERT(c.head_sent == 0);
      chunks_.erase(chunks_.begin() +
                    static_cast<std::ptrdiff_t>(i));
    }
    return freed;
  }

  Bytes send(Bytes budget, std::vector<SentPiece>& out) {
    RTS_EXPECTS(budget >= 0);
    Bytes remaining = std::min(budget, occupancy_);
    const Bytes sent = remaining;
    while (remaining > 0) {
      RTS_ASSERT(!chunks_.empty());
      Chunk& head = chunks_.front();
      const Bytes take = std::min(remaining, head.bytes());
      const Bytes progress = head.head_sent + take;
      const std::int64_t completed = progress / head.run->slice_size;
      out.push_back(SentPiece{.run = head.run,
                              .run_index = head.run_index,
                              .bytes = take,
                              .completed_slices = completed});
      head.slices -= completed;
      head.head_sent = progress % head.run->slice_size;
      occupancy_ -= take;
      remaining -= take;
      if (head.slices == 0) {
        RTS_ASSERT(head.head_sent == 0);
        chunks_.pop_front();
      }
    }
    RTS_ENSURES(occupancy_ >= 0);
    return sent;
  }

  bool head_in_transmission() const {
    return !chunks_.empty() && chunks_.front().head_sent > 0;
  }

  using DropObserver = std::function<void(const SliceRun&, std::size_t,
                                          std::int64_t)>;
  void set_drop_observer(DropObserver observer) {
    on_drop_ = std::move(observer);
  }

 private:
  std::deque<Chunk> chunks_;
  Bytes occupancy_ = 0;
  DropObserver on_drop_;
};

// ---------------------------------------------------------------------------
// Links: deque-backed, fresh delivery vector per step (the pre-ring
// implementations). They implement the production Link interface so the
// fault decorators in src/faults/ wrap them unchanged.
// ---------------------------------------------------------------------------

class ReferenceFixedDelayLink final : public Link {
 public:
  explicit ReferenceFixedDelayLink(Time propagation_delay)
      : p_(propagation_delay) {
    RTS_EXPECTS(propagation_delay >= 0);
  }

  void submit(Time t, std::vector<SentPiece> pieces) override {
    if (pieces.empty()) return;
    RTS_EXPECTS(in_flight_.empty() ||
                in_flight_.back().deliver_at <= t + p_);
    in_flight_.push_back(
        Batch{.deliver_at = t + p_, .pieces = std::move(pieces)});
  }

  std::vector<SentPiece> deliver(Time t) override {
    std::vector<SentPiece> out;
    while (!in_flight_.empty() && in_flight_.front().deliver_at <= t) {
      RTS_ASSERT(in_flight_.front().deliver_at == t);  // polled every step
      auto& pieces = in_flight_.front().pieces;
      out.insert(out.end(), pieces.begin(), pieces.end());
      in_flight_.pop_front();
    }
    return out;
  }

  bool idle() const override { return in_flight_.empty(); }
  Time min_delay() const override { return p_; }

 private:
  struct Batch {
    Time deliver_at = 0;
    std::vector<SentPiece> pieces;
  };
  Time p_;
  std::deque<Batch> in_flight_;
};

class ReferenceBoundedJitterLink final : public Link {
 public:
  ReferenceBoundedJitterLink(Time propagation_delay, Time max_jitter, Rng rng)
      : p_(propagation_delay), j_(max_jitter), rng_(rng) {
    RTS_EXPECTS(propagation_delay >= 0);
    RTS_EXPECTS(max_jitter >= 0);
  }

  void submit(Time t, std::vector<SentPiece> pieces) override {
    if (pieces.empty()) return;
    const Time jitter = j_ == 0 ? 0 : rng_.uniform_int(0, j_);
    // Clamp so deliveries stay FIFO: a later submission never arrives
    // before an earlier one.
    const Time at = std::max(t + p_ + jitter, last_delivery_);
    last_delivery_ = at;
    in_flight_.push_back(Batch{.deliver_at = at, .pieces = std::move(pieces)});
  }

  std::vector<SentPiece> deliver(Time t) override {
    std::vector<SentPiece> out;
    while (!in_flight_.empty() && in_flight_.front().deliver_at <= t) {
      auto& pieces = in_flight_.front().pieces;
      out.insert(out.end(), pieces.begin(), pieces.end());
      in_flight_.pop_front();
    }
    return out;
  }

  bool idle() const override { return in_flight_.empty(); }
  Time min_delay() const override { return p_; }

 private:
  struct Batch {
    Time deliver_at = 0;
    std::vector<SentPiece> pieces;
  };
  Time p_;
  Time j_;
  Rng rng_;
  Time last_delivery_ = 0;
  std::deque<Batch> in_flight_;
};

// ---------------------------------------------------------------------------
// Policies: the same shed templates as production, instantiated over the
// reference buffer, except Greedy's victim scan. Mirrors make_policy()'s name
// registry and defaults.
// ---------------------------------------------------------------------------

/// Greedy with no early stop: every round scans every chunk, oldest to
/// newest, and '<=' hands ties to the newer chunk. The victim is the
/// droppable chunk with the lowest byte value <= `max_value`. Works over any
/// buffer, so unit tests can run it on a ServerBuffer too.
template <class Buffer>
DropResult forward_greedy_shed(Buffer& buf, Bytes target,
                               double max_value = shed::kAnyValue) {
  DropResult total;
  while (buf.occupancy() > target) {
    const std::size_t chunk_count = buf.chunk_count();
    std::size_t victim = chunk_count;
    double victim_value = max_value;
    for (std::size_t i = 0; i < chunk_count; ++i) {
      if (buf.droppable_slices(i) <= 0) continue;
      const double v = buf.chunk(i).run->byte_value();
      if (v <= victim_value) {
        victim = i;
        victim_value = v;
      }
    }
    if (victim == chunk_count) break;
    const Bytes excess = buf.occupancy() - target;
    const Bytes slice = buf.chunk(victim).run->slice_size;
    const std::int64_t need = (excess + slice - 1) / slice;
    const DropResult freed = buf.drop_slices(
        victim, std::min(need, buf.droppable_slices(victim)));
    total.bytes += freed.bytes;
    total.weight += freed.weight;
    total.slices += freed.slices;
  }
  return total;
}

class ReferencePolicy {
 public:
  explicit ReferencePolicy(std::string_view name, std::uint64_t seed = 7)
      : rng_(seed) {
    if (name == "tail-drop") {
      kind_ = Kind::Tail;
    } else if (name == "greedy") {
      kind_ = Kind::Greedy;
    } else if (name == "head-drop") {
      kind_ = Kind::Head;
    } else if (name == "random") {
      kind_ = Kind::Random;
    } else if (name == "proactive") {
      kind_ = Kind::Proactive;
    } else {
      RTS_ASSERT(false && "unknown reference policy name");
    }
  }

  DropResult shed(ReferenceServerBuffer& buf, Bytes target) {
    switch (kind_) {
      case Kind::Tail: return shed::tail_shed(buf, target);
      case Kind::Greedy: return forward_greedy_shed(buf, target);
      case Kind::Head: return shed::head_shed(buf, target);
      case Kind::Random: return shed::random_shed(buf, target, rng_);
      case Kind::Proactive: return forward_greedy_shed(buf, target);
    }
    return {};
  }

  DropResult early_drop(ReferenceServerBuffer& buf, Bytes bound) {
    if (kind_ != Kind::Proactive) return {};
    const auto threshold = static_cast<Bytes>(
        std::floor(proactive_.watermark * static_cast<double>(bound)));
    if (buf.occupancy() <= threshold) return {};
    return forward_greedy_shed(buf, threshold, proactive_.value_floor);
  }

 private:
  enum class Kind { Tail, Greedy, Head, Random, Proactive };
  Kind kind_ = Kind::Tail;
  Rng rng_;
  ProactiveConfig proactive_{};
};

// ---------------------------------------------------------------------------
// Server: the generic algorithm with a deque retransmission queue and a
// fresh output vector per step (the pre-step_into interface).
// ---------------------------------------------------------------------------

class ReferenceServer {
 public:
  ReferenceServer(ServerConfig config, std::string_view policy_name)
      : config_(config), policy_(policy_name) {
    RTS_EXPECTS(config_.buffer >= 1);
    RTS_EXPECTS(config_.rate >= 1);
    buffer_.set_drop_observer(
        [this](const SliceRun& run, std::size_t /*run_index*/,
               std::int64_t slices) {
          RTS_ASSERT(current_report_ != nullptr);
          const Bytes bytes = run.slice_size * slices;
          current_report_->dropped_server.add(
              bytes, run.weight * static_cast<Weight>(slices), slices);
        });
  }

  using LinkLossSink = std::function<void(const SliceRun&, std::size_t,
                                          Bytes)>;
  void set_link_loss_sink(LinkLossSink sink) { loss_sink_ = std::move(sink); }

  const ReferenceServerBuffer& buffer() const { return buffer_; }
  bool idle() const { return buffer_.empty() && retx_queue_.empty(); }

  std::vector<SentPiece> step(Time t, const ArrivalBatch& arrivals,
                              std::span<const Nack> nacks,
                              SimReport& report) {
    current_report_ = &report;
    std::vector<SentPiece> out;

    for (const Nack& nack : nacks) handle_nack(nack, t);

    policy_.early_drop(buffer_, config_.buffer);

    for (std::size_t i = 0; i < arrivals.runs.size(); ++i) {
      const SliceRun& run = arrivals.runs[i];
      buffer_.push(run, arrivals.first_index + i, run.count);
      report.offered.add(run.total_bytes(), run.total_weight(), run.count);
      report.offered_by_type[static_cast<std::size_t>(run.frame_type)].add(
          run.total_bytes(), run.total_weight(), run.count);
    }

    const Bytes retx_sent = send_retransmissions(t, config_.rate, out);

    const Bytes planned_send =
        std::min(config_.rate - retx_sent, buffer_.occupancy());

    const Bytes target = config_.buffer + planned_send;
    if (buffer_.occupancy() > target) {
      policy_.shed(buffer_, target);
      RTS_ASSERT(buffer_.occupancy() <= target);
    }

    const Bytes sent = buffer_.send(planned_send, out);
    RTS_ASSERT(sent == planned_send);
    report.max_link_bytes_per_step =
        std::max(report.max_link_bytes_per_step, retx_sent + sent);
    report.max_server_occupancy =
        std::max(report.max_server_occupancy, buffer_.occupancy());
    RTS_ENSURES(buffer_.occupancy() <= config_.buffer);
    current_report_ = nullptr;
    return out;
  }

 private:
  struct RetxEntry {
    SentPiece piece;
    Time ready_at = 0;
  };

  void write_off(const SentPiece& piece) {
    if (loss_sink_) loss_sink_(*piece.run, piece.run_index, piece.bytes);
  }

  void handle_nack(const Nack& nack, Time t) {
    const RecoveryConfig& cfg = config_.recovery;
    const std::int32_t next_attempt = nack.piece.retx_attempt + 1;
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

  Bytes send_retransmissions(Time t, Bytes budget,
                             std::vector<SentPiece>& out) {
    Bytes sent = 0;
    for (auto it = retx_queue_.begin(); it != retx_queue_.end();) {
      if (t > it->piece.run->arrival + config_.recovery.smoothing_delay) {
        write_off(it->piece);
        it = retx_queue_.erase(it);
        continue;
      }
      if (it->ready_at > t) {
        ++it;
        continue;
      }
      if (it->piece.bytes > budget - sent) break;
      sent += it->piece.bytes;
      out.push_back(it->piece);
      if (current_report_ != nullptr) {
        current_report_->retransmitted_bytes += it->piece.bytes;
      }
      it = retx_queue_.erase(it);
    }
    return sent;
  }

  ServerConfig config_;
  ReferencePolicy policy_;
  ReferenceServerBuffer buffer_;
  std::deque<RetxEntry> retx_queue_;
  LinkLossSink loss_sink_;
  SimReport* current_report_ = nullptr;
};

// ---------------------------------------------------------------------------
// Client: reconstruction buffer with the pre-cursor playout lookup
// (Stream::arrivals_at binary search every step). Telemetry- and
// recorder-free: the equivalence suite compares tracer-only runs.
// ---------------------------------------------------------------------------

class ReferenceClient {
 public:
  ReferenceClient(const Stream& stream, Bytes capacity, Time playout_offset,
                  PlayoutMode mode, Time smoothing_delay,
                  UnderflowPolicy underflow, Time max_stall)
      : stream_(&stream),
        capacity_(capacity),
        offset_(playout_offset),
        mode_(mode),
        smoothing_delay_(smoothing_delay),
        underflow_(underflow),
        max_stall_(max_stall),
        runs_(stream.run_count()) {
    RTS_EXPECTS(capacity >= 1);
    RTS_EXPECTS(playout_offset >= 0);
    RTS_EXPECTS(mode == PlayoutMode::ArrivalPlusOffset ||
                smoothing_delay >= 0);
    RTS_EXPECTS(max_stall >= 0);
  }

  void deliver(Time t, std::span<const SentPiece> pieces, SimReport& report) {
    for (const SentPiece& piece : pieces) {
      RTS_ASSERT(piece.bytes > 0);
      RunState& rs = runs_[piece.run_index];
      if (mode_ == PlayoutMode::TimerFromFirstDelivery &&
          timer_base_ == kNever) {
        timer_frame_ = piece.run->arrival;
        timer_base_ = t + smoothing_delay_;
      }
      const Time playout_at = playout_step(piece.run->arrival);
      if (rs.played_out || playout_at < t) {
        report.max_lateness = std::max(
            report.max_lateness, t - (rs.played_out ? rs.played_at : playout_at));
        rs.late_lost += piece.bytes;
        total_late_ += piece.bytes;
        continue;
      }
      rs.stored += piece.bytes;
      occupancy_ += piece.bytes;
      arrived_this_step_.push_back({piece.run_index, piece.bytes});
    }
  }

  void play(Time t, SimReport& report) {
    play_frame(t, report);
    settle_capacity();
    report.max_client_occupancy =
        std::max(report.max_client_occupancy, occupancy_);
    RTS_ENSURES(occupancy_ >= 0);
  }

  void add_link_loss(std::size_t run_index, Bytes bytes) {
    RTS_EXPECTS(run_index < runs_.size());
    RTS_EXPECTS(bytes > 0);
    runs_[run_index].link_lost += bytes;
  }

  void finalize(SimReport& report) {
    RTS_EXPECTS(!finalized_);
    finalized_ = true;
    const auto runs = stream_->runs();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      RunState& rs = runs_[i];
      const SliceRun& run = runs[i];
      if (rs.stored > 0) {
        const std::int64_t whole = rs.stored / run.slice_size;
        report.residual.add(rs.stored,
                            run.weight * static_cast<Weight>(whole), whole);
        if (rs.stored % run.slice_size != 0) report.residual.slices += 1;
        occupancy_ -= rs.stored;
        rs.stored = 0;
        continue;
      }
      const Bytes lost_bytes =
          rs.overflow_lost + rs.late_lost + rs.leftover_lost + rs.link_lost;
      if (lost_bytes == 0) continue;
      RTS_ASSERT(lost_bytes % run.slice_size == 0);
      const std::int64_t lost_slices = lost_bytes / run.slice_size;
      const std::int64_t overflow_slices = rs.overflow_lost / run.slice_size;
      const std::int64_t link_slices = rs.link_lost / run.slice_size;
      const std::int64_t late_slices =
          lost_slices - overflow_slices - link_slices;
      RTS_ASSERT(late_slices >= 0);
      report.dropped_client_overflow.add(
          rs.overflow_lost, run.weight * static_cast<Weight>(overflow_slices),
          overflow_slices);
      report.lost_link.add(rs.link_lost,
                           run.weight * static_cast<Weight>(link_slices),
                           link_slices);
      report.dropped_client_late.add(
          rs.late_lost + rs.leftover_lost,
          run.weight * static_cast<Weight>(late_slices), late_slices);
    }
    report.stall_steps += stall_shift_;
  }

  Bytes occupancy() const { return occupancy_; }
  Time stall_steps() const { return stall_shift_; }
  std::int64_t underflow_events() const { return underflow_events_; }
  Bytes late_bytes_so_far() const { return total_late_; }
  Bytes overflow_bytes_so_far() const { return total_overflow_; }
  Bytes leftover_bytes_so_far() const { return total_leftover_; }

 private:
  struct RunState {
    Bytes stored = 0;
    Bytes overflow_lost = 0;
    Bytes late_lost = 0;
    Bytes leftover_lost = 0;
    Bytes link_lost = 0;
    std::int64_t played = 0;
    bool played_out = false;
    Time played_at = kNever;
  };

  Time playout_step(Time arrival) const {
    if (mode_ == PlayoutMode::ArrivalPlusOffset) {
      return arrival + offset_ + stall_shift_;
    }
    if (timer_base_ == kNever) return kNever;
    return timer_base_ + stall_shift_ + (arrival - timer_frame_);
  }

  void play_frame(Time t, SimReport& report) {
    Time frame_time;
    if (mode_ == PlayoutMode::ArrivalPlusOffset) {
      frame_time = t - offset_ - stall_shift_;
    } else {
      if (timer_base_ == kNever || t < timer_base_ + stall_shift_) return;
      frame_time = timer_frame_ + (t - timer_base_ - stall_shift_);
    }
    if (frame_time < 0) return;
    // The pre-cursor lookup: binary search the run table every step.
    const auto due = stream_->arrivals_at(frame_time);
    if (underflow_ == UnderflowPolicy::Stall && !due.empty() &&
        current_frame_stall_ < max_stall_) {
      for (const SliceRun& run : due) {
        const auto run_index =
            static_cast<std::size_t>(&run - stream_->runs().data());
        const RunState& rs = runs_[run_index];
        if (!rs.played_out &&
            (rs.stored + rs.link_lost) % run.slice_size != 0) {
          ++stall_shift_;
          ++current_frame_stall_;
          return;
        }
      }
    }
    current_frame_stall_ = 0;
    for (const SliceRun& run : due) {
      const auto run_index =
          static_cast<std::size_t>(&run - stream_->runs().data());
      RunState& rs = runs_[run_index];
      RTS_ASSERT(!rs.played_out);
      rs.played_out = true;
      rs.played_at = t;
      const std::int64_t complete = rs.stored / run.slice_size;
      const Bytes played_bytes = complete * run.slice_size;
      const Bytes leftover = rs.stored - played_bytes;
      rs.played = complete;
      rs.leftover_lost += leftover;
      total_leftover_ += leftover;
      if (leftover > 0) ++underflow_events_;
      occupancy_ -= rs.stored;
      rs.stored = 0;
      report.played.add(played_bytes,
                        run.weight * static_cast<Weight>(complete), complete);
      report.played_by_type[static_cast<std::size_t>(run.frame_type)].add(
          played_bytes, run.weight * static_cast<Weight>(complete), complete);
    }
  }

  void settle_capacity() {
    while (occupancy_ > capacity_ && !arrived_this_step_.empty()) {
      auto& [run_index, bytes] = arrived_this_step_.back();
      RunState& rs = runs_[run_index];
      const Bytes excess = occupancy_ - capacity_;
      const Bytes evict = std::min({excess, bytes, rs.stored});
      if (evict == 0) {
        arrived_this_step_.pop_back();
        continue;
      }
      rs.stored -= evict;
      rs.overflow_lost += evict;
      total_overflow_ += evict;
      occupancy_ -= evict;
      bytes -= evict;
      if (bytes == 0) arrived_this_step_.pop_back();
    }
    RTS_ASSERT(occupancy_ <= capacity_);
    arrived_this_step_.clear();
  }

  const Stream* stream_;
  Bytes capacity_;
  Time offset_;
  PlayoutMode mode_;
  Time smoothing_delay_;
  UnderflowPolicy underflow_;
  Time max_stall_;
  Time timer_base_ = kNever;
  Time timer_frame_ = kNever;
  Time stall_shift_ = 0;
  Time current_frame_stall_ = 0;
  std::int64_t underflow_events_ = 0;
  Bytes total_late_ = 0;
  Bytes total_overflow_ = 0;
  Bytes total_leftover_ = 0;
  Bytes occupancy_ = 0;
  std::vector<RunState> runs_;
  std::vector<std::pair<std::size_t, Bytes>> arrived_this_step_;
  bool finalized_ = false;
};

// ---------------------------------------------------------------------------
// Simulator: the production step loop over the reference components, with
// the invariant monitor replicated inline (it reads production types).
// Emits the same config / violation / step / run JSONL events.
// ---------------------------------------------------------------------------

class ReferenceSimulator {
 public:
  /// `link` defaults to ReferenceFixedDelayLink(config.link_delay). Pass a
  /// production fault decorator wrapped around a reference link to compare
  /// lossy runs.
  ReferenceSimulator(const Stream& stream, sim::SimConfig config,
                     std::string_view policy_name,
                     std::unique_ptr<Link> link = nullptr)
      : stream_(&stream),
        config_(config),
        server_(make_server_config(config), policy_name),
        link_(link ? std::move(link)
                   : std::make_unique<ReferenceFixedDelayLink>(
                         config.link_delay)),
        client_(stream, config.client_buffer,
                config.link_delay + config.smoothing_delay, config.playout,
                config.smoothing_delay, config.underflow, config.max_stall) {
    RTS_EXPECTS(config.validate(stream).empty());
  }

  SimReport run(obs::TraceWriter* tracer = nullptr) {
    RTS_EXPECTS(!ran_);
    ran_ = true;
    SimReport report;
    ArrivalCursor cursor(*stream_);
    server_.set_link_loss_sink(
        [this](const SliceRun& /*run*/, std::size_t run_index, Bytes bytes) {
          client_.add_link_loss(run_index, bytes);
        });

    if (tracer != nullptr) {
      obs::Json event = obs::Json::object();
      event["type"] = "config";
      fill_config(event);
      tracer->write(event);
    }

    const Time horizon = stream_->horizon();
    const Time playout_offset = config_.link_delay + config_.smoothing_delay;
    const Time last_playout = horizon - 1 + playout_offset;
    const Time limit = horizon + playout_offset +
                       stream_->total_bytes() / config_.rate + 16 +
                       8 * (link_->min_delay() + 1) + 256;
    const Time sojourn_bound =
        (config_.server_buffer + config_.rate - 1) / config_.rate;
    Time t = 0;
    for (; t <= last_playout || !server_.idle() || !link_->idle() ||
           client_.occupancy() > 0;
         ++t) {
      RTS_ASSERT(t <= limit + client_.stall_steps());
      const Bytes drops_before = report.dropped_server.bytes;
      const Bytes played_before = report.played.bytes;
      const Bytes client_dropped_before = client_dropped_so_far();
      const Bytes retx_before = report.retransmitted_bytes;
      const Time stalls_before = client_.stall_steps();

      const auto nacks = link_->collect_nacks(t);
      const ArrivalBatch batch = cursor.step(t);
      Bytes arrived = 0;
      for (const SliceRun& run : batch.runs) arrived += run.total_bytes();
      auto pieces = server_.step(t, batch, nacks, report);
      Bytes sent = 0;
      for (const SentPiece& piece : pieces) sent += piece.bytes;
      if (!pieces.empty()) link_->submit(t, std::move(pieces));
      const auto delivered = link_->deliver(t);
      client_.deliver(t, delivered, report);
      client_.play(t, report);

      // Inline InvariantMonitor (faults/invariant_monitor.h reads the
      // production SmoothingServer/Client types): same checks, same
      // violation events, same SimReport::invariants tallies.
      if (server_.buffer().occupancy() > config_.server_buffer) {
        record_violation(tracer, t, report.invariants.server_occupancy,
                         "server_occupancy",
                         server_.buffer().occupancy() - config_.server_buffer,
                         report);
      }
      if (server_.buffer().chunk_count() > 0) {
        const Time age = t - server_.buffer().chunk(0).run->arrival;
        if (age > sojourn_bound) {
          record_violation(tracer, t, report.invariants.server_sojourn,
                           "server_sojourn", age - sojourn_bound, report);
        }
      }
      if (client_.overflow_bytes_so_far() > prev_overflow_) {
        record_violation(tracer, t, report.invariants.client_overflow,
                         "client_overflow",
                         client_.overflow_bytes_so_far() - prev_overflow_,
                         report);
      }
      if (client_.late_bytes_so_far() > prev_late_ ||
          client_.underflow_events() > prev_underflow_events_) {
        record_violation(
            tracer, t, report.invariants.client_underflow, "client_underflow",
            (client_.late_bytes_so_far() - prev_late_) +
                (client_.underflow_events() - prev_underflow_events_),
            report);
      }
      prev_overflow_ = client_.overflow_bytes_so_far();
      prev_late_ = client_.late_bytes_so_far();
      prev_underflow_events_ = client_.underflow_events();

      if (tracer != nullptr) {
        Bytes delivered_bytes = 0;
        for (const SentPiece& piece : delivered) {
          delivered_bytes += piece.bytes;
        }
        obs::Json event = obs::Json::object();
        event["type"] = "step";
        event["t"] = t;
        event["arrived"] = arrived;
        event["sent"] = sent;
        event["delivered"] = delivered_bytes;
        event["played"] = report.played.bytes - played_before;
        event["dropped_server"] = report.dropped_server.bytes - drops_before;
        event["dropped_client"] =
            client_dropped_so_far() - client_dropped_before;
        event["retransmitted"] = report.retransmitted_bytes - retx_before;
        event["server_occupancy"] = server_.buffer().occupancy();
        event["client_occupancy"] = client_.occupancy();
        event["stalled"] = client_.stall_steps() > stalls_before;
        tracer->write(event);
      }
    }
    report.steps = t;
    client_.finalize(report);
    if (tracer != nullptr) {
      obs::Json event = obs::Json::object();
      event["type"] = "run";
      event["steps"] = report.steps;
      event["offered_bytes"] = report.offered.bytes;
      event["played_bytes"] = report.played.bytes;
      event["dropped_server_bytes"] = report.dropped_server.bytes;
      event["dropped_client_overflow_bytes"] =
          report.dropped_client_overflow.bytes;
      event["dropped_client_late_bytes"] = report.dropped_client_late.bytes;
      event["lost_link_bytes"] = report.lost_link.bytes;
      event["residual_bytes"] = report.residual.bytes;
      event["retransmitted_bytes"] = report.retransmitted_bytes;
      event["stall_steps"] = report.stall_steps;
      event["invariant_violations"] = report.invariants.total();
      tracer->write(event);
    }
    RTS_ENSURES(report.conserves());
    return report;
  }

 private:
  static ServerConfig make_server_config(const sim::SimConfig& config) {
    ServerConfig sc{.buffer = config.server_buffer,
                    .rate = config.rate,
                    .recovery = config.recovery};
    sc.recovery.smoothing_delay = config.smoothing_delay;
    return sc;
  }

  Bytes client_dropped_so_far() const {
    return client_.late_bytes_so_far() + client_.overflow_bytes_so_far() +
           client_.leftover_bytes_so_far();
  }

  void fill_config(obs::Json& event) const {
    event["server_buffer"] = config_.server_buffer;
    event["client_buffer"] = config_.client_buffer;
    event["rate"] = config_.rate;
    event["smoothing_delay"] = config_.smoothing_delay;
    event["link_delay"] = config_.link_delay;
    event["runs"] = static_cast<std::int64_t>(stream_->run_count());
  }

  void record_violation(obs::TraceWriter* tracer, Time t,
                        std::int64_t& counter, std::string_view kind,
                        std::int64_t magnitude, SimReport& report) {
    counter += 1;
    report.invariants.first = std::min(report.invariants.first, t);
    if (tracer != nullptr) {
      obs::Json event = obs::Json::object();
      event["type"] = "violation";
      event["t"] = t;
      event["kind"] = kind;
      event["magnitude"] = magnitude;
      tracer->write(event);
    }
  }

  const Stream* stream_;
  sim::SimConfig config_;
  ReferenceServer server_;
  std::unique_ptr<Link> link_;
  ReferenceClient client_;
  Bytes prev_overflow_ = 0;
  Bytes prev_late_ = 0;
  std::int64_t prev_underflow_events_ = 0;
  bool ran_ = false;
};

}  // namespace rtsmooth::refcore

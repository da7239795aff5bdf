#include "core/client.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth {
namespace {

std::size_t type_index(FrameType t) { return static_cast<std::size_t>(t); }

}  // namespace

Client::Client(std::size_t run_slots, Bytes capacity, Time playout_offset,
               PlayoutMode mode, Time smoothing_delay,
               UnderflowPolicy underflow, Time max_stall)
    : capacity_(capacity),
      offset_(playout_offset),
      mode_(mode),
      smoothing_delay_(smoothing_delay),
      underflow_(underflow),
      max_stall_(max_stall),
      // An empty stream still gets one slot, so slot_of() never divides by 0.
      run_slots_(std::max<std::size_t>(run_slots, 1)) {
  RTS_EXPECTS(capacity >= 1);
  RTS_EXPECTS(playout_offset >= 0);
  RTS_EXPECTS(mode == PlayoutMode::ArrivalPlusOffset || smoothing_delay >= 0);
  RTS_EXPECTS(max_stall >= 0);
  runs_.reserve(run_slots_);
  // Steady-state allocation freedom: the per-step arrival scratch grows at
  // most to the largest number of pieces delivered in one step, which the
  // first few steps establish; reserving a handful avoids even that.
  arrived_this_step_.reserve(8);
}

void Client::set_telemetry(obs::Telemetry telemetry) {
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  // Eager creation keeps snapshots structurally identical across runs (a
  // lossless run reports client.late_bytes = 0 rather than omitting it).
  played_bytes_ = &reg.counter("client.played_bytes");
  late_bytes_ = &reg.counter("client.late_bytes");
  overflow_bytes_ = &reg.counter("client.overflow_bytes");
  underflow_count_ = &reg.counter("client.underflow_events");
  occupancy_hist_ = &reg.histogram("client.occupancy",
                                   obs::HistogramSpec::exponential(1, 32));
  stall_run_hist_ = &reg.histogram("client.stall_run_length",
                                   obs::HistogramSpec::exponential(1, 16));
  max_occupancy_ = &reg.gauge("client.max_occupancy");
}

void Client::deliver(Time t, std::span<const SentPiece> pieces,
                     SimReport& report, ScheduleRecorder* rec) {
  for (const SentPiece& piece : pieces) {
    RTS_ASSERT(piece.bytes > 0);
    if (rec != nullptr) rec->note_receive(piece.run_index, t, piece.bytes);
    RunState& rs = live(piece.run_index);
    RTS_ASSERT(rs.run == piece.run);
    if (mode_ == PlayoutMode::TimerFromFirstDelivery &&
        timer_base_ == kNever) {
      // Sect. 3.3: arm the timer on the first slice; its frame plays D
      // steps from now, and one frame per step thereafter.
      timer_frame_ = piece.run->arrival;
      timer_base_ = t + smoothing_delay_;
    }
    const Time playout_at = playout_step(piece.run->arrival);
    if (rs.played_out() || playout_at < t) {
      // Deadline miss: the frame's playout step has passed (underflow at
      // playout already charged the slice; here we only account bytes).
      // deliver() runs before play() each step, so the miss is >= 1 step.
      report.max_lateness = std::max(
          report.max_lateness, t - (rs.played_out() ? rs.played_at : playout_at));
      rs.late_lost += piece.bytes;
      total_late_ += piece.bytes;
      if (late_bytes_ != nullptr) late_bytes_->add(piece.bytes);
      maybe_retire(rs, report);
      continue;
    }
    // Tentative store; play() settles the capacity bound afterwards.
    rs.stored += piece.bytes;
    occupancy_ += piece.bytes;
    arrived_this_step_.push_back({piece.run_index, piece.bytes});
  }
}

void Client::play(Time t, SimReport& report, ScheduleRecorder* rec) {
  play_frame(t, report, rec);
  settle_capacity();
  report.max_client_occupancy =
      std::max(report.max_client_occupancy, occupancy_);
  if (occupancy_hist_ != nullptr) {
    occupancy_hist_->record(occupancy_);
    max_occupancy_->update(occupancy_);
  }
  RTS_ENSURES(occupancy_ >= 0);
}

void Client::play_frame(Time t, SimReport& report, ScheduleRecorder* rec) {
  Time frame_time;
  if (mode_ == PlayoutMode::ArrivalPlusOffset) {
    frame_time = t - offset_ - stall_shift_;
  } else {
    if (timer_base_ == kNever || t < timer_base_ + stall_shift_) return;
    frame_time = timer_frame_ + (t - timer_base_ - stall_shift_);
  }
  if (frame_time < 0) return;
  // Monotone due-span scan over the admitted runs: frame_time never
  // decreases across calls. The cursor only skips runs strictly in the past
  // — a stalled frame re-derives the same span on the next call.
  while (play_cursor_ < admitted_ && run_at(play_cursor_).arrival < frame_time) {
    ++play_cursor_;
  }
  std::size_t due_end = play_cursor_;
  while (due_end < admitted_ && run_at(due_end).arrival == frame_time) {
    ++due_end;
  }
  if (underflow_ == UnderflowPolicy::Stall && due_end > play_cursor_ &&
      current_frame_stall_ < max_stall_) {
    // A partially-arrived slice signals bytes still in flight (delayed or
    // being retransmitted): pause playout one step and re-check. A frame
    // with only whole slices stored gets no benefit from waiting — the
    // missing slices were dropped at the server on purpose — and neither
    // does a gap the link has already written off (`link_lost`): stalling
    // for bytes that can never arrive only delays every later frame.
    for (std::size_t i = play_cursor_; i < due_end; ++i) {
      const RunState& rs = live(i);
      if ((rs.stored + rs.link_lost) % rs.run->slice_size != 0) {
        ++stall_shift_;
        ++current_frame_stall_;
        return;
      }
    }
  }
  if (stall_run_hist_ != nullptr && current_frame_stall_ > 0) {
    // The frame now due stops stalling here — either complete at last or out
    // of budget; either way the run length is final.
    stall_run_hist_->record(current_frame_stall_);
  }
  current_frame_stall_ = 0;
  for (std::size_t i = play_cursor_; i < due_end; ++i) {
    RunState& rs = live(i);
    const SliceRun& run = *rs.run;
    RTS_ASSERT(!rs.played_out());
    rs.played_at = t;
    const std::int64_t complete = rs.stored / run.slice_size;
    const Bytes played_bytes = complete * run.slice_size;
    const Bytes leftover = rs.stored - played_bytes;
    rs.booked += played_bytes;
    rs.late_lost += leftover;
    total_leftover_ += leftover;
    if (leftover > 0) {
      ++underflow_events_;
      if (underflow_count_ != nullptr) underflow_count_->add(1);
    }
    ++playouts_;
    if (complete < run.count) ++degraded_playouts_;
    if (played_bytes_ != nullptr) played_bytes_->add(played_bytes);
    occupancy_ -= rs.stored;
    rs.stored = 0;
    report.played.add(played_bytes, run.weight * static_cast<Weight>(complete),
                      complete);
    report.played_by_type[type_index(run.frame_type)].add(
        played_bytes, run.weight * static_cast<Weight>(complete), complete);
    if (rec != nullptr) {
      rec->run(i).played = complete;
      if (complete > 0) rec->run(i).play_time = t;
    }
    maybe_retire(rs, report);
  }
  // The played span is never due again; passing it now keeps every run at
  // or after the cursor live.
  play_cursor_ = due_end;
}

Time Client::next_playout_event(Time now) const {
  Time frame_time;
  if (mode_ == PlayoutMode::ArrivalPlusOffset) {
    frame_time = now - offset_ - stall_shift_;
  } else {
    if (timer_base_ == kNever) return kNever;
    frame_time = timer_frame_ + (now - timer_base_ - stall_shift_);
  }
  // Runs before the cursor are played or skipped; the first admitted run at
  // or after frame_time is the next one play_frame() will find due. Runs not
  // yet admitted arrive later still, and the caller bounds those by the
  // next arrival.
  std::size_t lo = play_cursor_;
  std::size_t hi = admitted_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (run_at(mid).arrival < frame_time) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == admitted_) return kNever;
  return std::max(now, playout_step(run_at(lo).arrival));
}

void Client::record_idle_steps(std::int64_t n) {
  RTS_EXPECTS(occupancy_ == 0);
  if (occupancy_hist_ == nullptr) return;
  occupancy_hist_->record(0, n);
  max_occupancy_->update(0);
}

void Client::settle_capacity() {
  // Evict the newest delivered bytes until the post-playout occupancy fits.
  // Only this step's arrivals can be in excess: the previous step ended
  // within capacity.
  while (occupancy_ > capacity_ && !arrived_this_step_.empty()) {
    auto& [run_index, bytes] = arrived_this_step_.back();
    RunState& rs = runs_[slot_of(run_index)];
    const Bytes excess = occupancy_ - capacity_;
    const Bytes evict = std::min({excess, bytes, rs.stored});
    if (evict == 0) {
      // This piece's frame already played this step (and may have retired,
      // leaving nothing stored); nothing left to evict.
      arrived_this_step_.pop_back();
      continue;
    }
    rs.stored -= evict;
    rs.overflow_lost += evict;
    total_overflow_ += evict;
    if (overflow_bytes_ != nullptr) overflow_bytes_->add(evict);
    occupancy_ -= evict;
    bytes -= evict;
    if (bytes == 0) arrived_this_step_.pop_back();
  }
  RTS_ASSERT(occupancy_ <= capacity_);
  arrived_this_step_.clear();
}

void Client::add_server_drop(std::size_t run_index, std::int64_t slices,
                             SimReport& report) {
  RTS_EXPECTS(slices > 0);
  RunState& rs = live(run_index);
  rs.booked += slices * rs.run->slice_size;
  maybe_retire(rs, report);
}

void Client::add_link_loss(std::size_t run_index, Bytes bytes,
                           SimReport& report) {
  RTS_EXPECTS(bytes > 0);
  RunState& rs = live(run_index);
  rs.link_lost += bytes;
  maybe_retire(rs, report);
}

void Client::maybe_retire(RunState& rs, SimReport& report) {
  // After playout nothing is stored (play_frame empties the run and later
  // deliveries are late), so a played-out run whose terminal bytes cover it
  // owes nothing anywhere: not in the server buffer, the retransmission
  // queue, the link, or the client.
  if (!rs.played_out()) return;
  const Bytes terminal =
      rs.booked + rs.overflow_lost + rs.late_lost + rs.link_lost;
  if (terminal == rs.run->total_bytes()) settle(rs, report);
}

void Client::settle(RunState& rs, SimReport& report) {
  const SliceRun& run = *rs.run;
  const Bytes slice = run.slice_size;
  occupancy_ -= rs.stored;
  rs.stored = 0;
  rs.run = nullptr;
  --live_runs_;
  const Bytes lost = rs.overflow_lost + rs.late_lost + rs.link_lost;
  // Still owed: client-stored (just released), server-buffered, on the
  // link, or queued for retransmission. Zero for a retiring run.
  const Bytes owed = run.total_bytes() - rs.booked - lost;
  RTS_ASSERT(owed >= 0);
  if (lost == 0 && owed == 0) return;  // played or dropped at the server
  // Slices neither played nor dropped at the server. The server drops and
  // transmits whole slices, so once nothing is owed the client-side losses
  // form exactly these slices. Whole-slice counts go to each category by its
  // own byte total; the cross-category remainders (a slice split between,
  // say, an erased half and a late half) are charged to the deadline-miss
  // bucket — or to the residual while bytes are still owed.
  const std::int64_t open = run.count - rs.booked / slice;
  const std::int64_t overflow_slices = rs.overflow_lost / slice;
  const std::int64_t link_slices = rs.link_lost / slice;
  std::int64_t late_slices = open - overflow_slices - link_slices;
  std::int64_t residual_slices = 0;
  if (owed > 0) {
    residual_slices = late_slices - rs.late_lost / slice;
    late_slices = rs.late_lost / slice;
  }
  RTS_ASSERT(late_slices >= 0 && residual_slices >= 0);
  if (rs.overflow_lost > 0) {
    report.dropped_client_overflow.add(
        rs.overflow_lost, run.weight * static_cast<Weight>(overflow_slices),
        overflow_slices);
  }
  if (rs.link_lost > 0) {
    report.lost_link.add(rs.link_lost,
                         run.weight * static_cast<Weight>(link_slices),
                         link_slices);
  }
  if (rs.late_lost > 0 || late_slices > 0) {
    report.dropped_client_late.add(
        rs.late_lost, run.weight * static_cast<Weight>(late_slices),
        late_slices);
  }
  if (owed > 0) {
    report.residual.add(owed, run.weight * static_cast<Weight>(residual_slices),
                        residual_slices);
  }
}

void Client::finalize(SimReport& report) {
  RTS_EXPECTS(!finalized_);
  finalized_ = true;
  for (RunState& rs : runs_) {
    if (rs.run != nullptr) settle(rs, report);
  }
  RTS_ENSURES(live_runs_ == 0 && occupancy_ == 0);
  report.stall_steps += stall_shift_;
}

}  // namespace rtsmooth

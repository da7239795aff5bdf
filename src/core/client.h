// The client: reconstruction buffer, real-time playout and the per-run byte
// ledger (paper Sect. 3.1.2) — the last stage of the shared step
// (core/pipeline.h) that both the batch simulator and the live engine
// (src/daemon/) run.
//
// Playout rule: frame t plays at t + P + D (the timer-based description in
// the paper — wait D after the first arrival, then one frame per step — is
// equivalent under the generic server, and a test pins that equivalence).
// A slice plays iff all its bytes are stored at its playout step.
//
// The client also implements the two failure modes of a misconfigured
// system (Sect. 3.3): bytes that do not fit in a finite client buffer are
// refused (client overflow), and bytes delivered after their playout step
// are useless (deadline miss / underflow). Under B = R*D neither occurs
// (Lemmas 3.3, 3.4) and tests assert exactly that.
//
// On a faulty channel (src/faults/) underflow *does* occur, and the
// UnderflowPolicy picks the degradation mode: Skip plays what is complete and
// conceals the rest (weighted loss), Stall pauses playout — shifting the
// timer base so every later deadline moves with it — for up to `max_stall`
// steps while a partially-arrived slice may still be completed by a delayed
// delivery or a retransmission.
//
// The ledger. A run enters once, through admit(run, run_index), in index
// order and before the server can drop any of its bytes. Its state lives in
// a table of `run_slots` entries, run i in slot i % run_slots: a batch
// client sizes the table to the stream and never wraps; a live engine sizes
// it to its in-flight bound and recycles slots, admitting run i only once
// run i - run_slots has retired (can_admit()). Every byte of a run ends in
// one terminal state — played, dropped at the server (add_server_drop()),
// refused on overflow, delivered late, left in an incomplete slice at
// playout, or erased in flight and written off (add_link_loss()). The
// server books its drops and write-offs into this ledger as they happen.
// On the step a played-out run's last byte becomes terminal the run
// retires: its losses enter the SimReport with whole-slice counts and its
// slot frees. finalize() settles the runs that never retired the same way
// and books everything they still owe — client-stored, server-buffered, on
// the link, queued for retransmission — as residual.

#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/metrics.h"
#include "core/schedule.h"
#include "core/server_buffer.h"
#include "core/slice.h"
#include "core/types.h"
#include "obs/telemetry.h"
#include "util/assert.h"

namespace rtsmooth {

/// How the client decides playout times.
enum class PlayoutMode {
  /// PT(frame k) = k + P + D — the analytical convention used throughout
  /// the paper's proofs. Requires knowing P (i.e. synchronized clocks).
  ArrivalPlusOffset,
  /// The paper's Sect. 3.3 protocol: no clock synchronization — "the
  /// client just sets the timer to D when the first slice arrives; when
  /// this timer goes off, the client starts playing out one frame at a
  /// step". Equivalent to the above under the generic server on a
  /// zero-jitter link (a test pins this); on a jittery link it self-
  /// calibrates to the first byte's actual delay.
  TimerFromFirstDelivery,
};

/// What the client does when the frame due for playout is incomplete.
enum class UnderflowPolicy {
  /// Concealment: play the complete slices, count the partial remainder as
  /// weighted loss, keep the playout clock running. The paper's implicit
  /// behaviour.
  Skip,
  /// Rebuffer-and-resync: pause playout (shifting the timer base, so all
  /// later deadlines shift too) while the due frame holds a partially
  /// arrived slice whose missing bytes are not known lost, up to
  /// `max_stall` steps per frame, then give up and play what is complete.
  /// Gaps the link has written off (NACKed past recovery) never stall —
  /// those bytes can no longer arrive.
  Stall,
};

class Client {
 public:
  /// `run_slots` sizes the run table: the stream's run count for a batch
  /// run, the bound on simultaneously live runs for a live engine.
  /// `capacity` is Bc in bytes; pass kUnbounded for an infinite buffer.
  /// `playout_offset` = P + D: frame t plays at t + playout_offset.
  /// For TimerFromFirstDelivery, `smoothing_delay` (= D) must be given:
  /// the timer arms at first delivery + D.
  /// `max_stall` bounds the rebuffering spent on any one frame (Stall only).
  Client(std::size_t run_slots, Bytes capacity, Time playout_offset,
         PlayoutMode mode = PlayoutMode::ArrivalPlusOffset,
         Time smoothing_delay = -1,
         UnderflowPolicy underflow = UnderflowPolicy::Skip,
         Time max_stall = 0);

  static constexpr Bytes kUnbounded = std::numeric_limits<Bytes>::max();

  /// True when run `run_index` has a free slot: run run_index - run_slots
  /// (the slot's previous tenant) has retired, or never existed.
  bool can_admit(std::size_t run_index) const {
    return run_index < run_slots_ ||
           runs_[run_index % run_slots_].run == nullptr;
  }

  /// Opens the ledger of `run` under identity `run_index`. Runs are admitted
  /// in index order (0, 1, 2, ...), each before the server can drop from
  /// it; `run` must stay put until the run retires. Requires can_admit().
  /// Inline: the simulator admits every run of the stream.
  void admit(const SliceRun& run, std::size_t run_index) {
    RTS_EXPECTS(run_index == admitted_);
    RTS_EXPECTS(can_admit(run_index));
    if (run_index < run_slots_) {
      runs_.push_back(RunState{.run = &run});
    } else {
      runs_[run_index % run_slots_] = RunState{.run = &run};
    }
    ++admitted_;
    ++live_runs_;
  }

  /// Accepts the pieces delivered by the link at step t. Late bytes are
  /// accounted immediately (and set report.max_lateness); in-time bytes are
  /// stored *tentatively* — the capacity bound |Bc(t)| <= Bc applies to the
  /// post-playout state (Lemma 3.4 counts the buffer after frame t has
  /// left), so the overflow decision is deferred to play().
  void deliver(Time t, std::span<const SentPiece> pieces, SimReport& report,
               ScheduleRecorder* rec);

  /// Plays the frame scheduled for step t (arrival time t - playout_offset),
  /// then evicts whatever exceeds the capacity — newest delivered bytes
  /// first, since those are the ones that "did not fit". Must be called
  /// once per step, after deliver().
  void play(Time t, SimReport& report, ScheduleRecorder* rec);

  /// Records `slices` whole slices of run `run_index` dropped at the server
  /// (booked by the server as it drops them). The server tallies them in
  /// the report; the client only settles the run's ledger.
  void add_server_drop(std::size_t run_index, std::int64_t slices,
                       SimReport& report);

  /// Records bytes of run `run_index` that were erased in flight and written
  /// off by the server's recovery path (booked by the server) — they will
  /// never be delivered.
  void add_link_loss(std::size_t run_index, Bytes bytes, SimReport& report);

  /// Settles every run that has not retired: classifies its terminal bytes
  /// as retirement would and moves what it still owes to report.residual.
  /// Call exactly once, after the final step; the client is empty after.
  void finalize(SimReport& report);

  Bytes occupancy() const { return occupancy_; }
  Time playout_offset() const { return offset_; }

  /// Playout step for the frame arriving at `arrival` under the current
  /// stall shift, or kNever if it is not yet determined (timer mode before
  /// the first delivery). Inline: deliver() calls this once per piece.
  Time playout_step(Time arrival) const {
    if (mode_ == PlayoutMode::ArrivalPlusOffset) {
      return arrival + offset_ + stall_shift_;
    }
    if (timer_base_ == kNever) return kNever;  // timer not armed yet
    return timer_base_ + stall_shift_ + (arrival - timer_frame_);
  }

  /// Earliest step >= now at which play() would do more than sample an
  /// empty buffer: the playout step of the first admitted run at or after
  /// the frame cursor (zero-stored frames count — playing them marks them
  /// played out and can stall). kNever when no such step exists, including
  /// timer mode before the timer arms. The simulator bounds skippable spans
  /// with this and the next arrival, so play() is never skipped on a step
  /// where it would act.
  Time next_playout_event(Time now) const;

  /// Registry back-fill for `n` quiescent steps the simulator skipped:
  /// exactly the per-step occupancy samples play() records for an empty
  /// buffer. No-op while telemetry is off.
  void record_idle_steps(std::int64_t n);

  /// Installs the telemetry handle (null by default: no cost). The client
  /// records per-step occupancy, played/late/overflow byte counters, and the
  /// distribution of rebuffering run lengths ("client.stall_run_length").
  void set_telemetry(obs::Telemetry telemetry);

  // -- monotone running totals (InvariantMonitor, step records) ------------
  Time stall_steps() const { return stall_shift_; }
  std::int64_t underflow_events() const { return underflow_events_; }
  Bytes late_bytes_so_far() const { return total_late_; }
  Bytes overflow_bytes_so_far() const { return total_overflow_; }
  /// Bytes of incomplete slices discarded at their playout step.
  Bytes leftover_bytes_so_far() const { return total_leftover_; }
  /// Everything the client has discarded: late + overflow + leftover.
  Bytes dropped_bytes_so_far() const {
    return total_late_ + total_overflow_ + total_leftover_;
  }
  /// Frames played out (one per run, at its playout step), and those of
  /// them that played fewer slices than the run offered.
  std::int64_t playouts() const { return playouts_; }
  std::int64_t degraded_playouts() const { return degraded_playouts_; }
  /// Runs admitted and not yet retired.
  std::int64_t live_runs() const { return live_runs_; }
  Bytes capacity() const { return capacity_; }

 private:
  struct RunState {
    const SliceRun* run = nullptr;  ///< null while the slot is free
    Bytes stored = 0;          ///< bytes in the buffer, not yet played
    Bytes overflow_lost = 0;   ///< bytes refused for lack of space
    /// Bytes delivered after the playout step, plus the bytes of incomplete
    /// slices discarded at playout.
    Bytes late_lost = 0;
    Bytes link_lost = 0;       ///< bytes erased in flight, written off
    /// Bytes the report already holds: played, or dropped at the server.
    /// Both come in whole slices.
    Bytes booked = 0;
    Time played_at = kNever;   ///< playout step, once played out

    bool played_out() const { return played_at != kNever; }
  };

  /// Batch tables hold every run, so the per-piece lookup is a compare, not
  /// a division; only a recycling table wraps.
  std::size_t slot_of(std::size_t run_index) const {
    return run_index < run_slots_ ? run_index : run_index % run_slots_;
  }
  RunState& live(std::size_t run_index) {
    RunState& rs = runs_[slot_of(run_index)];
    RTS_ASSERT(rs.run != nullptr);
    return rs;
  }
  const SliceRun& run_at(std::size_t run_index) const {
    return *runs_[slot_of(run_index)].run;
  }
  void play_frame(Time t, SimReport& report, ScheduleRecorder* rec);
  void settle_capacity();
  /// Retires `rs` once it is played out and every byte is terminal.
  void maybe_retire(RunState& rs, SimReport& report);
  /// Books the run's losses (and what it still owes, as residual) into
  /// `report` with whole-slice counts, and frees its slot.
  void settle(RunState& rs, SimReport& report);

  Bytes capacity_;
  Time offset_;
  PlayoutMode mode_;
  Time smoothing_delay_;
  UnderflowPolicy underflow_;
  Time max_stall_;
  Time timer_base_ = kNever;        ///< playout step of timer_frame_
  Time timer_frame_ = kNever;       ///< arrival time anchoring the timer
  Time stall_shift_ = 0;            ///< total rebuffering; shifts every deadline
  Time current_frame_stall_ = 0;    ///< stall spent on the frame now due
  std::int64_t underflow_events_ = 0;
  std::int64_t playouts_ = 0;
  std::int64_t degraded_playouts_ = 0;
  std::int64_t live_runs_ = 0;
  Bytes total_late_ = 0;
  Bytes total_overflow_ = 0;
  Bytes total_leftover_ = 0;
  Bytes occupancy_ = 0;
  /// Runs admitted so far; the next admission must carry this index.
  std::size_t admitted_ = 0;
  /// First admitted run not yet played. Frame times are non-decreasing
  /// across play_frame() calls (stalls repeat a frame, never rewind), so the
  /// due span is found by a monotone scan instead of a per-step binary
  /// search. Runs are only skipped once their arrival step is strictly
  /// before the frame being played, and a played span is passed at once —
  /// so every run at or after the cursor is live.
  std::size_t play_cursor_ = 0;
  std::size_t run_slots_;
  /// One entry per admitted run until the table holds run_slots_; reserved
  /// up front and filled on admission, so a batch run touches each entry
  /// once and a recycling table never reallocates.
  std::vector<RunState> runs_;
  /// Pieces stored this step, newest last — the overflow eviction order.
  std::vector<std::pair<std::size_t, Bytes>> arrived_this_step_;
  bool finalized_ = false;
  // Instruments resolved by set_telemetry(); null while telemetry is off.
  obs::Counter* played_bytes_ = nullptr;
  obs::Counter* late_bytes_ = nullptr;
  obs::Counter* overflow_bytes_ = nullptr;
  obs::Counter* underflow_count_ = nullptr;
  obs::Histogram* occupancy_hist_ = nullptr;
  obs::Histogram* stall_run_hist_ = nullptr;
  obs::Gauge* max_occupancy_ = nullptr;
};

}  // namespace rtsmooth

// Input streams as sets of slices (paper Definition 2.1).
//
// A slice is the atomic droppable unit; all bytes of a slice share its
// arrival time, playback time and drop time. Slices produced by cutting one
// frame at a given granularity are *identical* — same arrival, size and
// weight — and every algorithm in the paper is invariant under permuting
// identical slices. We therefore store runs of identical slices
// (`SliceRun`) instead of individual slices, which makes the "every byte is
// a slice" experiments (Sect. 5.1) tractable: a 38 KB frame is one run of
// 38912 unit slices, not 38912 objects.

#pragma once

#include <span>
#include <vector>

#include "core/types.h"
#include "util/assert.h"

namespace rtsmooth {

/// A maximal run of identical slices: `count` slices of `slice_size` bytes
/// each, all arriving at `arrival`, each carrying weight `weight`.
struct SliceRun {
  Time arrival = 0;
  Bytes slice_size = 1;      ///< bytes per slice, >= 1
  std::int64_t count = 1;    ///< number of identical slices, >= 1
  Weight weight = 1.0;       ///< weight per slice, >= 0
  FrameType frame_type = FrameType::Other;
  std::int64_t frame_index = -1;  ///< source frame ordinal, -1 if synthetic

  Bytes total_bytes() const { return slice_size * count; }
  Weight total_weight() const { return weight * static_cast<Weight>(count); }

  /// The greedy policy's ranking key (paper Sect. 4.1): w(s) / |s|. A unit
  /// slice's is its weight, read without a division: byte slices are the
  /// figures' shape, and ServerBuffer::push and Greedy's victim scan read
  /// the key per chunk.
  double byte_value() const {
    return slice_size == 1
               ? weight
               : static_cast<double>(weight) / static_cast<double>(slice_size);
  }

  bool operator==(const SliceRun&) const = default;
};

/// An input stream: slice runs ordered by arrival time. Immutable once
/// built; the simulator, policies and off-line solvers hold pointers into
/// the run vector, so a Stream must outlive every schedule computed on it.
class Stream {
 public:
  Stream() = default;

  /// Builds from runs in any order; they are stably sorted by arrival.
  /// Throws nothing; precondition violations (non-positive sizes/counts,
  /// negative weights or arrivals) abort via contracts.
  static Stream from_runs(std::vector<SliceRun> runs);

  std::span<const SliceRun> runs() const { return runs_; }
  bool empty() const { return runs_.empty(); }
  std::size_t run_count() const { return runs_.size(); }

  /// Total size |B| of the stream in bytes (Definition 2.1).
  Bytes total_bytes() const { return total_bytes_; }
  Weight total_weight() const { return total_weight_; }
  std::int64_t total_slices() const { return total_slices_; }

  /// Largest slice size Lmax appearing in the stream (1 for unit slices).
  Bytes max_slice_size() const { return max_slice_size_; }

  /// Largest frame (= per-step arrival) size in bytes; the experimental
  /// buffer axis of Sect. 5 is expressed in multiples of this.
  Bytes max_frame_bytes() const { return max_frame_bytes_; }

  /// First and one-past-last arrival step. For an empty stream both are 0.
  Time first_arrival() const { return runs_.empty() ? 0 : runs_.front().arrival; }
  Time horizon() const { return runs_.empty() ? 0 : runs_.back().arrival + 1; }

  /// The paper's "average stream rate": total bytes divided by the number of
  /// frame slots spanned (Sect. 5.1).
  double average_rate() const;

  /// Runs arriving exactly at time t (contiguous span; empty if none).
  std::span<const SliceRun> arrivals_at(Time t) const;

  /// True if every slice has size 1 (the unit-slice model of Sect. 3.2).
  bool unit_slices() const { return max_slice_size_ == 1; }

 private:
  std::vector<SliceRun> runs_;
  Bytes total_bytes_ = 0;
  Weight total_weight_ = 0;
  std::int64_t total_slices_ = 0;
  Bytes max_slice_size_ = 1;
  Bytes max_frame_bytes_ = 0;
};

/// Arrivals of one step: a contiguous span of runs plus the index of its
/// first run within the stream (run identities are stream indices
/// throughout the library).
struct ArrivalBatch {
  std::span<const SliceRun> runs;
  std::size_t first_index = 0;
};

/// Cursor over a stream's arrivals in time order; the simulator's source.
/// Amortized O(1) per step.
class ArrivalCursor {
 public:
  explicit ArrivalCursor(const Stream& stream) : stream_(&stream) {}

  /// All runs arriving at step t. Steps must be queried in non-decreasing
  /// order; skipped steps' arrivals are skipped too.
  ArrivalBatch step(Time t);

  bool exhausted() const { return next_ >= stream_->run_count(); }

  /// Arrival step of the next unconsumed run, or kNever once exhausted.
  /// Strictly later than the last step() argument, so the simulator can
  /// use it directly as its next arrival event.
  Time next_arrival() const {
    return exhausted() ? kNever : stream_->runs()[next_].arrival;
  }

 private:
  const Stream* stream_;
  std::size_t next_ = 0;
  Time last_t_ = std::numeric_limits<Time>::min();
};

}  // namespace rtsmooth

// The server's random-access (push-out) FIFO buffer (paper Sect. 2.1, 3.1.1).
//
// Contents are stored as *chunks*: contiguous groups of identical slices
// from one SliceRun. Transmission consumes bytes from the head chunk; drops
// remove whole slices from any chunk. Because slices within a run are
// identical, removing "some k slices of chunk c" is well defined without
// tracking slice identities.
//
// The one stateful subtlety is the paper's no-preemption rule: "a slice
// cannot be dropped after it starts being transmitted". The buffer tracks
// how many bytes of the head slice have entered the link (`head_sent`) and
// refuses to drop that slice.
//
// Every drop also lands in a drop log of (run, run index, slices) victims.
// Policies only pick victims; the owning server (core/generic_algorithm.h)
// books the log into its report and client ledger after each policy call
// and clears it, so loss accounting never depends on which policy ran.

#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "util/assert.h"
#include "util/ring_buffer.h"

namespace rtsmooth {

/// A contiguous group of `slices` identical slices of `run`, in FIFO
/// position. If this is the head chunk, `head_sent` bytes of its first
/// slice may already be on the link.
struct Chunk {
  const SliceRun* run = nullptr;
  std::size_t run_index = 0;  ///< index of `run` in the source Stream
  std::int64_t slices = 0;
  Bytes head_sent = 0;  ///< bytes of the first slice already transmitted

  Bytes bytes() const { return run->slice_size * slices - head_sent; }
};

/// A group of bytes handed to the link: `bytes` bytes of run `run`,
/// completing `completed_slices` whole slices.
///
/// `retx_attempt` is 0 for a fresh transmission; a copy re-sent by the
/// recovery path (see core/generic_algorithm.h) carries the number of
/// retransmissions so far, so a lossy link's NACK can report how many times
/// this data has already been retried.
struct SentPiece {
  const SliceRun* run = nullptr;
  std::size_t run_index = 0;
  Bytes bytes = 0;
  std::int64_t completed_slices = 0;
  std::int32_t retx_attempt = 0;
};

/// Result of a drop operation, for accounting.
struct DropResult {
  Bytes bytes = 0;
  Weight weight = 0.0;
  std::int64_t slices = 0;
};

/// One drop_slices() victim: `slices` whole slices of run `run`.
struct DroppedSlices {
  const SliceRun* run = nullptr;
  std::size_t run_index = 0;
  std::int64_t slices = 0;
};

class ServerBuffer {
 public:
  ServerBuffer() = default;

  // -- state ---------------------------------------------------------------

  Bytes occupancy() const { return occupancy_; }
  bool empty() const { return occupancy_ == 0; }
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Pre-sizes the chunk ring and the drop log so steady-state operation
  /// never reallocates. The server sizes them from its configuration
  /// (DESIGN.md Sect. 12): the buffer holds at most B + A(t) bytes before a
  /// shed, every chunk holds at least one byte, and chunks of the same run
  /// merge, so the count of arrival runs resident at once is a safe upper
  /// bound in practice. A shed takes each chunk as a victim at most once,
  /// so the log between two clears needs no more entries than chunks.
  void reserve_chunks(std::size_t n) {
    chunks_.reserve(n);
    drop_log_.reserve(n);
  }

  /// Chunk at FIFO position i (0 = head / oldest).
  const Chunk& chunk(std::size_t i) const {
    RTS_EXPECTS(i < chunks_.size());
    return chunks_[i];
  }

  /// The lowest byte value push() has ever stored, +inf before the first
  /// push: a lower bound on every resident chunk's byte value, at which
  /// Greedy's victim scan may stop (policies/shed_algorithms.h).
  double min_value() const { return min_value_; }

  /// Number of slices of chunk i that may legally be dropped: all of them,
  /// except a head slice that has started transmission.
  std::int64_t droppable_slices(std::size_t i) const {
    const Chunk& c = chunk(i);
    if (i == 0 && c.head_sent > 0) return c.slices - 1;
    return c.slices;
  }

  // -- mutation ------------------------------------------------------------

  /// Appends `count` slices of `run` at the tail (a frame arriving).
  /// Merges with the tail chunk when it is the same run.
  void push(const SliceRun& run, std::size_t run_index, std::int64_t count) {
    RTS_EXPECTS(count >= 1);
    occupancy_ += run.slice_size * count;
    if (!chunks_.empty() && chunks_.back().run == &run) {
      chunks_.back().slices += count;
      return;
    }
    chunks_.push_back(Chunk{.run = &run, .run_index = run_index,
                            .slices = count, .head_sent = 0});
    min_value_ = std::min(min_value_, run.byte_value());
  }

  /// Drops `k` slices from chunk i and appends the victim to the drop log.
  /// Requires 1 <= k <= droppable_slices(i). Returns the freed bytes/weight.
  /// Chunk indices of later chunks shift down if the chunk empties; callers
  /// iterating while dropping must re-read chunk_count().
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
    drop_log_.push_back(
        DroppedSlices{.run = c.run, .run_index = c.run_index, .slices = k});
    if (c.slices == 0) {
      RTS_ASSERT(c.head_sent == 0);  // droppable_slices() protects the head
      chunks_.erase(i);
    }
    return freed;
  }

  /// Transmits up to `budget` bytes from the head in FIFO order, splitting
  /// chunks and slices as needed. Appends the sent pieces to `out` and
  /// returns the number of bytes actually sent (min(budget, occupancy)).
  /// Defined inline: this is the innermost statement of every simulation
  /// step and inlining it into the server lets the compiler keep the head
  /// chunk's fields in registers across the budget loop.
  Bytes send(Bytes budget, std::vector<SentPiece>& out) {
    RTS_EXPECTS(budget >= 0);
    Bytes remaining = std::min(budget, occupancy_);
    const Bytes sent = remaining;
    while (remaining > 0) {
      RTS_ASSERT(!chunks_.empty());
      Chunk& head = chunks_.front();
      const Bytes take = std::min(remaining, head.bytes());
      const Bytes progress = head.head_sent + take;
      const Bytes slice_size = head.run->slice_size;
      // Unit slices ("every byte is a slice", Sect. 5.1) are the dominant
      // experimental shape; skipping the two integer divisions for them
      // keeps this loop off the top of the end-to-end profile.
      const std::int64_t completed =
          slice_size == 1 ? progress : progress / slice_size;
      out.push_back(SentPiece{.run = head.run,
                              .run_index = head.run_index,
                              .bytes = take,
                              .completed_slices = completed});
      head.slices -= completed;
      head.head_sent = slice_size == 1 ? 0 : progress % slice_size;
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

  /// True if the head slice is partially transmitted.
  bool head_in_transmission() const {
    return !chunks_.empty() && chunks_.front().head_sent > 0;
  }

  /// The drop_slices() victims since the last clear_drop_log(), in drop
  /// order. The owning server books and clears them after every policy
  /// call, so policies never handle bookkeeping.
  std::span<const DroppedSlices> drop_log() const { return drop_log_; }
  void clear_drop_log() { drop_log_.clear(); }

 private:
  /// Chunk records live in a ring-buffer arena indexed by FIFO position:
  /// each entry is a (run, slice count, head offset) descriptor into the
  /// Stream's immutable SliceRun table, never a materialized per-slice
  /// object. See DESIGN.md Sect. 12 for the layout and capacity formula.
  RingBuffer<Chunk> chunks_;
  Bytes occupancy_ = 0;
  double min_value_ = std::numeric_limits<double>::infinity();
  std::vector<DroppedSlices> drop_log_;
};

}  // namespace rtsmooth

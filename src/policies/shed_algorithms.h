// Shed algorithms, templated over the buffer implementation.
//
// The DropPolicy classes in this directory are thin wrappers around these
// function templates. The split exists for the differential test harness
// (tests/reference_core.h): the reference oracle runs the *same* shedding
// logic against its deque-based ReferenceServerBuffer, so an equivalence
// failure between the optimized and reference cores can only come from the
// data structures under test, never from a second copy of policy logic
// drifting out of sync.
//
// `Buffer` must provide the ServerBuffer query/mutation surface used by
// policies: occupancy(), chunk_count(), chunk(i) (returning a Chunk with
// `run`, `slices`, `head_sent`), droppable_slices(i), and drop_slices(i, k).
//
// Greedy is the one exception to the shared logic: its scan stops early at
// a value floor the buffer supplies (ServerBuffer::min_value()), and the
// reference keeps its own scan of every chunk, so the differential suite
// checks that stop instead of sharing it.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/server_buffer.h"
#include "core/types.h"
#include "util/assert.h"
#include "util/rng.h"

namespace rtsmooth::shed {

/// Drops up to `k` slices from chunk `i`, clamped to what is droppable.
template <class Buffer>
DropResult drop_clamped(Buffer& buf, std::size_t i, std::int64_t k) {
  const std::int64_t can = buf.droppable_slices(i);
  const std::int64_t n = std::min(k, can);
  if (n <= 0) return {};
  return buf.drop_slices(i, n);
}

/// Tail-drop: shed from the newest chunks first (classic push-out FIFO).
template <class Buffer>
DropResult tail_shed(Buffer& buf, Bytes target) {
  DropResult total;
  // Newest chunks first. Dropping can erase a chunk, so re-derive the index
  // from chunk_count() each round.
  while (buf.occupancy() > target) {
    RTS_ASSERT(buf.chunk_count() > 0);
    bool dropped = false;
    for (std::size_t i = buf.chunk_count(); i-- > 0 && !dropped;) {
      const std::int64_t can = buf.droppable_slices(i);
      if (can <= 0) continue;
      const Bytes excess = buf.occupancy() - target;
      const Bytes slice = buf.chunk(i).run->slice_size;
      const std::int64_t need = (excess + slice - 1) / slice;
      const DropResult freed = drop_clamped(buf, i, std::min(need, can));
      total.bytes += freed.bytes;
      total.weight += freed.weight;
      total.slices += freed.slices;
      dropped = freed.slices > 0;
    }
    RTS_ASSERT(dropped);  // the caller guarantees shedding is possible
  }
  return total;
}

/// Head-drop: shed from the oldest droppable chunks first.
template <class Buffer>
DropResult head_shed(Buffer& buf, Bytes target) {
  DropResult total;
  while (buf.occupancy() > target) {
    bool dropped = false;
    for (std::size_t i = 0; i < buf.chunk_count() && !dropped; ++i) {
      const std::int64_t can = buf.droppable_slices(i);
      if (can <= 0) continue;  // head slice in transmission
      const Bytes excess = buf.occupancy() - target;
      const Bytes slice = buf.chunk(i).run->slice_size;
      const std::int64_t need = (excess + slice - 1) / slice;
      const DropResult freed = drop_clamped(buf, i, std::min(need, can));
      total.bytes += freed.bytes;
      total.weight += freed.weight;
      total.slices += freed.slices;
      dropped = freed.slices > 0;
    }
    RTS_ASSERT(dropped);
  }
  return total;
}

/// Random-drop: shed uniformly random chunks until the target is met. The
/// victim sequence is a pure function of `rng`'s state, so reference and
/// optimized buffers fed the same seed pick the same victims.
template <class Buffer>
DropResult random_shed(Buffer& buf, Bytes target, Rng& rng) {
  DropResult total;
  while (buf.occupancy() > target) {
    RTS_ASSERT(buf.chunk_count() > 0);
    // Pick a uniformly random chunk; retry if its slices are protected.
    // Victim granularity is a chunk-sized lump (dropping truly one slice at
    // a time would make unit-slice overflows quadratic).
    const auto i = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(buf.chunk_count()) - 1));
    const std::int64_t can = buf.droppable_slices(i);
    if (can <= 0) continue;
    const Bytes excess = buf.occupancy() - target;
    const Bytes slice = buf.chunk(i).run->slice_size;
    const std::int64_t need = (excess + slice - 1) / slice;
    const DropResult freed = drop_clamped(buf, i, std::min(need, can));
    total.bytes += freed.bytes;
    total.weight += freed.weight;
    total.slices += freed.slices;
  }
  return total;
}

/// greedy_shed's default `max_value`: no byte value is exempt.
inline constexpr double kAnyValue = std::numeric_limits<double>::infinity();

/// Greedy (weighted) shed: repeatedly drops from the droppable chunk with the
/// lowest byte value, newest first on ties, considering only chunks whose
/// byte value is <= `max_value` (a chunk at exactly `max_value` is shed too).
/// See policies/greedy_drop.h for the benefit-ordering rationale.
///
/// The victim scan runs from the newest chunk and stops at the first
/// droppable chunk whose value is at most `floor`, a lower bound on every
/// droppable value: that chunk is the cheapest, and the newest of its value.
/// `floor` starts as the buffer's min_value() and rises to each victim's
/// value, which is valid because nothing is pushed or sent during one call,
/// so the droppable set only shrinks. `Buffer` must provide min_value().
template <class Buffer>
DropResult greedy_shed(Buffer& buf, Bytes target,
                       double max_value = kAnyValue) {
  DropResult total;
  double floor = buf.min_value();
  while (buf.occupancy() > target) {
    const std::size_t chunk_count = buf.chunk_count();
    std::size_t victim = chunk_count;
    double victim_value = max_value;
    for (std::size_t i = chunk_count; i-- > 0;) {
      const Chunk& c = buf.chunk(i);
      const std::int64_t droppable =
          (i == 0 && c.head_sent > 0) ? c.slices - 1 : c.slices;
      if (droppable <= 0) continue;
      const double v = c.run->byte_value();
      // The first eligible chunk, then only strictly cheaper ones: a tie
      // keeps the newer chunk.
      if (victim == chunk_count ? v <= max_value : v < victim_value) {
        victim = i;
        victim_value = v;
        if (v <= floor) break;
      }
    }
    if (victim == chunk_count) break;  // nothing at or below max_value
    const Bytes excess = buf.occupancy() - target;
    const Bytes slice = buf.chunk(victim).run->slice_size;
    const std::int64_t need = (excess + slice - 1) / slice;
    const std::int64_t n = std::min(need, buf.droppable_slices(victim));
    RTS_ASSERT(n > 0);
    const DropResult freed = buf.drop_slices(victim, n);
    total.bytes += freed.bytes;
    total.weight += freed.weight;
    total.slices += freed.slices;
    floor = victim_value;
  }
  return total;
}

}  // namespace rtsmooth::shed

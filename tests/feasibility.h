// Tests-only: feasibility of an accepted byte stream against (buffer B,
// rate R), the check under brute_force.h and the oracle the unit greedy's
// accepted sets are tested against.
//
// Off-line, every drop can be moved to the arrival step (it only lowers
// occupancy), so a schedule is just an accepted subset. Feasibility is then
// Lindley's recursion with work-conserving drain:
//     Q(t) = max(0, Q(t-1) + a(t) - R),  require Q(t) <= B for all t,
// equivalently (Hall's condition over intervals):
//     for all t1 <= t2:  sum_{t in [t1,t2]} a(t)  <=  B + R*(t2-t1+1).
// Both forms are implemented; tests cross-check them against each other.

#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "util/assert.h"

namespace rtsmooth::offline {

/// Accepted bytes per step: (time, bytes), strictly increasing times.
using ByteArrivals = std::vector<std::pair<Time, Bytes>>;

/// Aggregates a stream (all of it accepted) into per-step byte arrivals.
inline ByteArrivals arrivals_of(const Stream& stream) {
  std::map<Time, Bytes> per_step;
  for (const SliceRun& run : stream.runs()) {
    per_step[run.arrival] += run.total_bytes();
  }
  ByteArrivals out;
  out.reserve(per_step.size());
  for (const auto& [t, bytes] : per_step) out.emplace_back(t, bytes);
  return out;
}

/// Peak occupancy of the Lindley recursion (work-conserving drain at
/// `rate`). O(n) in the number of distinct arrival steps.
inline Bytes lindley_peak(std::span<const std::pair<Time, Bytes>> arrivals,
                          Bytes rate) {
  RTS_EXPECTS(rate >= 1);
  Bytes peak = 0;
  Bytes q = 0;
  Time prev = 0;
  bool first = true;
  for (const auto& [t, bytes] : arrivals) {
    RTS_EXPECTS(bytes >= 0);
    if (!first) {
      RTS_EXPECTS(t > prev);
      // Idle steps between arrivals drain the queue.
      const Time gap = t - prev - 1;
      q = std::max<Bytes>(0, q - rate * gap);
    }
    first = false;
    prev = t;
    q = std::max<Bytes>(0, q + bytes - rate);
    peak = std::max(peak, q);
  }
  return peak;
}

/// True iff the accepted stream fits in `buffer` when drained at `rate`.
inline bool feasible(std::span<const std::pair<Time, Bytes>> arrivals,
                     Bytes buffer, Bytes rate) {
  RTS_EXPECTS(buffer >= 0);
  return lindley_peak(arrivals, rate) <= buffer;
}

/// The Hall/interval form, O(n^2): for every pair of arrival steps, checks
/// sum <= B + R*len. Used as an independent oracle in tests.
inline bool feasible_interval_form(
    std::span<const std::pair<Time, Bytes>> arrivals, Bytes buffer,
    Bytes rate) {
  RTS_EXPECTS(buffer >= 0);
  RTS_EXPECTS(rate >= 1);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Bytes sum = 0;
    for (std::size_t j = i; j < arrivals.size(); ++j) {
      sum += arrivals[j].second;
      const Time len = arrivals[j].first - arrivals[i].first + 1;
      if (sum > buffer + rate * len) return false;
    }
  }
  return true;
}

}  // namespace rtsmooth::offline

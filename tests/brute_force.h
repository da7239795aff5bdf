// Tests-only exponential reference solver: enumerates every subset of
// slices and keeps the best feasible benefit. The test oracle for
// unit_optimal and pareto_dp_optimal; unusable beyond ~20 slices by
// construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "feasibility.h"
#include "util/assert.h"

namespace rtsmooth::offline {

/// Optimal benefit by exhaustive search. Requires the stream's total slice
/// count to be at most `max_slices` (default 22; 2^22 subsets is the
/// practical ceiling) — aborts via contract otherwise, because silently
/// running forever is not an option for an oracle.
inline Weight brute_force_optimal(const Stream& stream, Bytes buffer,
                                  Bytes rate, std::size_t max_slices = 22) {
  RTS_EXPECTS(buffer >= 0);
  RTS_EXPECTS(rate >= 1);
  const auto n = static_cast<std::size_t>(stream.total_slices());
  RTS_EXPECTS(n <= max_slices);
  RTS_EXPECTS(n <= 62);

  // Expand runs into individual slices.
  struct Item {
    Time arrival;
    Bytes size;
    Weight weight;
  };
  std::vector<Item> items;
  items.reserve(n);
  for (const SliceRun& run : stream.runs()) {
    for (std::int64_t k = 0; k < run.count; ++k) {
      items.push_back(Item{.arrival = run.arrival,
                           .size = run.slice_size,
                           .weight = run.weight});
    }
  }

  Weight best = 0.0;
  std::vector<std::pair<Time, Bytes>> arrivals;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    Weight w = 0.0;
    arrivals.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1) == 0) continue;
      w += items[i].weight;
      // Items are sorted by arrival (runs are); merge same-step bytes.
      if (!arrivals.empty() && arrivals.back().first == items[i].arrival) {
        arrivals.back().second += items[i].size;
      } else {
        arrivals.emplace_back(items[i].arrival, items[i].size);
      }
    }
    if (w <= best) continue;
    if (feasible(arrivals, buffer, rate)) best = w;
  }
  return best;
}

}  // namespace rtsmooth::offline

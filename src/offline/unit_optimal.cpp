#include "offline/unit_optimal.h"

#include <algorithm>

#include "offline/segment_tree.h"
#include "util/assert.h"

namespace rtsmooth::offline {

OfflineResult unit_optimal(const Stream& stream, Bytes buffer, Bytes rate) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(stream.unit_slices());
  OfflineResult result;
  result.accepted_per_run.assign(stream.run_count(), 0);
  if (stream.empty()) return result;

  const Time horizon = stream.horizon();  // arrivals are in [0, horizon)
  // G has indices 0..horizon where G(j) = F(j-1), G(0) = 0. With nothing
  // accepted F(t) = -R*(t+1), so G(j) = -R*j: an affine ramp.
  const auto n = static_cast<std::size_t>(horizon) + 1;
  RangeAddTree g(n, /*base=*/0, /*step=*/-rate);

  // Greedy order: decreasing byte value; ties by arrival then index for
  // determinism (any tie order yields the same optimal total). Runs are
  // sorted by arrival, so a stable sort on the value alone is that order.
  struct Ranked {
    double value;
    std::size_t run;
  };
  const auto runs = stream.runs();
  std::vector<Ranked> order;
  order.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    order.push_back(Ranked{.value = runs[i].byte_value(), .run = i});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.value > b.value;
                   });

  for (const Ranked& ranked : order) {
    const SliceRun& run = runs[ranked.run];
    const auto t = static_cast<std::size_t>(run.arrival);
    // Constraint pairs (t1-1, t2) with t1 <= t <= t2 map to G indices
    // v in [0, t] and u in (t, horizon].
    const RangeAddTree::Split around = g.split(t);
    const Bytes slack = buffer - (around.suffix_max - around.prefix_min);
    const std::int64_t take =
        std::clamp<std::int64_t>(slack, 0, run.count);
    if (take == 0) continue;
    g.add_suffix(t, take);
    result.accepted_per_run[ranked.run] = take;
    result.benefit += run.weight * static_cast<Weight>(take);
    result.accepted_bytes += take;  // unit slices: bytes == slices
    result.accepted_slices += take;
  }
  return result;
}

}  // namespace rtsmooth::offline

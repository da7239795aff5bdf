#include "offline/unit_optimal.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <span>

#include "offline/segment_tree.h"
#include "util/assert.h"

namespace rtsmooth::offline {
namespace {

/// Books the slices the greedy accepted from run `i`. Both paths call it in
/// the greedy order, so `benefit` sums in the same order and matches bit for
/// bit.
void accept(OfflineResult& result, const SliceRun& run, std::size_t i,
            std::int64_t take) {
  result.accepted_per_run[i] = take;
  result.benefit += run.weight * static_cast<Weight>(take);
  result.accepted_bytes += take;  // unit slices: bytes == slices
  result.accepted_slices += take;
}

/// The distinct byte values of `runs` in decreasing order; empty once there
/// are more than `limit` of them.
std::vector<double> value_classes(std::span<const SliceRun> runs,
                                  std::size_t limit) {
  std::vector<double> values;
  for (const SliceRun& run : runs) {
    const double v = run.byte_value();
    const auto it =
        std::lower_bound(values.begin(), values.end(), v, std::greater<>());
    if (it != values.end() && *it == v) continue;
    if (values.size() == limit) return {};
    values.insert(it, v);
  }
  return values;
}

/// The greedy over a RangeAddTree: one stable sort fixes the order, then two
/// path walks per run.
void tree_greedy(std::span<const SliceRun> runs, Time horizon, Bytes buffer,
                 Bytes rate, OfflineResult& result) {
  // G has indices 0..horizon where G(j) = F(j-1), G(0) = 0. With nothing
  // accepted F(t) = -R*(t+1), so G(j) = -R*j: an affine ramp.
  RangeAddTree g(static_cast<std::size_t>(horizon) + 1, /*base=*/0,
                 /*step=*/-rate);

  // Greedy order: decreasing byte value; ties by arrival then index for
  // determinism (any tie order yields the same optimal total). Runs are
  // sorted by arrival, so a stable sort on the value alone is that order.
  struct Ranked {
    double value;
    std::size_t run;
  };
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
    accept(result, run, ranked.run, take);
  }
}

/// The same greedy, one linear pass per byte-value class over G held flat
/// (the exactness argument is in unit_optimal.h). `values` are the classes
/// in decreasing order.
void class_passes(std::span<const SliceRun> runs,
                  const std::vector<double>& values, Time horizon,
                  Bytes buffer, Bytes rate, OfflineResult& result) {
  // Counting sort of the runs by class. Runs are in arrival order, so each
  // class keeps arrival-then-index order: the stable sort's order.
  const auto class_of = [&](const SliceRun& run) {
    return static_cast<std::size_t>(
        std::lower_bound(values.begin(), values.end(), run.byte_value(),
                         std::greater<>()) -
        values.begin());
  };
  std::vector<std::size_t> start(values.size() + 1, 0);
  for (const SliceRun& run : runs) ++start[class_of(run) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> order(runs.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      order[next[class_of(runs[i])]++] = i;
    }
  }

  const auto n = static_cast<std::size_t>(horizon) + 1;
  std::vector<std::int64_t> g(n);
  for (std::size_t j = 0; j < n; ++j) g[j] = -rate * static_cast<Bytes>(j);
  std::vector<std::int64_t> suffix_max(n);
  for (std::size_t c = 0; c < values.size(); ++c) {
    // suffix_max[t] = max G over (t, horizon] at the class's start.
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t j = n; j-- > 0;) {
      suffix_max[j] = hi;
      hi = std::max(hi, g[j]);
    }
    // `acc` is what the class has accepted so far. Every run so far arrived
    // at or before the current one, so G over (t, horizon] has risen by all
    // of it, and G(p) for p <= t by what arrived before p: the forward
    // fold adds `acc` to each G(p) as p passes and keeps the running min.
    std::int64_t acc = 0;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::size_t p = 0;  // G(0..p-1) are folded
    for (std::size_t k = start[c]; k < start[c + 1]; ++k) {
      const std::size_t i = order[k];
      const SliceRun& run = runs[i];
      const auto t = static_cast<std::size_t>(run.arrival);
      for (; p <= t; ++p) {
        g[p] += acc;
        lo = std::min(lo, g[p]);
      }
      const Bytes slack = buffer - (suffix_max[t] + acc - lo);
      const std::int64_t take =
          std::clamp<std::int64_t>(slack, 0, run.count);
      if (take == 0) continue;
      acc += take;
      accept(result, run, i, take);
    }
    for (; p < n; ++p) g[p] += acc;
  }
}

}  // namespace

std::size_t class_pass_limit(std::size_t runs, Time horizon) {
  RTS_EXPECTS(horizon >= 0);
  const auto cells = static_cast<std::size_t>(horizon) + 1;
  return runs * static_cast<std::size_t>(std::bit_width(cells)) / cells + 1;
}

OfflineResult unit_optimal(const Stream& stream, Bytes buffer, Bytes rate) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(stream.unit_slices());
  OfflineResult result;
  result.accepted_per_run.assign(stream.run_count(), 0);
  if (stream.empty()) return result;

  const auto runs = stream.runs();
  const Time horizon = stream.horizon();  // arrivals are in [0, horizon)
  const std::vector<double> values =
      value_classes(runs, class_pass_limit(runs.size(), horizon));
  if (values.empty()) {
    tree_greedy(runs, horizon, buffer, rate, result);
  } else {
    class_passes(runs, values, horizon, buffer, rate, result);
  }
  return result;
}

}  // namespace rtsmooth::offline

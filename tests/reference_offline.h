// Tests-only reference implementation of the exact off-line solvers — the
// oracle for PropertyFuzz.OfflineSolversMatchReference (test_property.cpp).
//
// The production solvers (src/offline/) walk one tree path per run and merge
// one sorted frontier per slice (DESIGN.md Sect. 5). They must give the same
// answers, bit for bit, as the straightforward versions they replaced. This
// header preserves those versions: a recursive range-add/min/max segment
// tree with general range queries, a three-key greedy sort, and a DP that
// re-sorts and prunes the whole frontier after every slice and every drain.
// Like reference_core.h, it is deliberately boring: nobody optimizes an
// oracle.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "util/assert.h"

namespace rtsmooth::refoffline {

// ---------------------------------------------------------------------------
// Recursive range-add / range-min / range-max segment tree.
// ---------------------------------------------------------------------------

class RangeAddTree {
 public:
  RangeAddTree(std::size_t n, std::int64_t base, std::int64_t step) : n_(n) {
    RTS_EXPECTS(n >= 1);
    nodes_.resize(4 * n);
    build(1, 0, n_ - 1, base, step);
  }

  void add(std::size_t lo, std::size_t hi, std::int64_t delta) {
    RTS_EXPECTS(lo <= hi && hi < n_);
    add(1, 0, n_ - 1, lo, hi, delta);
  }

  std::int64_t range_max(std::size_t lo, std::size_t hi) const {
    RTS_EXPECTS(lo <= hi && hi < n_);
    return query_max(1, 0, n_ - 1, lo, hi, 0);
  }

  std::int64_t range_min(std::size_t lo, std::size_t hi) const {
    RTS_EXPECTS(lo <= hi && hi < n_);
    return query_min(1, 0, n_ - 1, lo, hi, 0);
  }

 private:
  struct Node {
    std::int64_t max = 0;
    std::int64_t min = 0;
    std::int64_t pending = 0;  ///< add applying to the whole subtree
  };

  void build(std::size_t node, std::size_t lo, std::size_t hi,
             std::int64_t base, std::int64_t step) {
    if (lo == hi) {
      const std::int64_t v = base + step * static_cast<std::int64_t>(lo);
      nodes_[node].max = nodes_[node].min = v;
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    build(2 * node, lo, mid, base, step);
    build(2 * node + 1, mid + 1, hi, base, step);
    nodes_[node].max =
        std::max(nodes_[2 * node].max, nodes_[2 * node + 1].max);
    nodes_[node].min =
        std::min(nodes_[2 * node].min, nodes_[2 * node + 1].min);
  }

  void add(std::size_t node, std::size_t node_lo, std::size_t node_hi,
           std::size_t lo, std::size_t hi, std::int64_t delta) {
    if (hi < node_lo || node_hi < lo) return;
    if (lo <= node_lo && node_hi <= hi) {
      nodes_[node].pending += delta;
      nodes_[node].max += delta;
      nodes_[node].min += delta;
      return;
    }
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    add(2 * node, node_lo, mid, lo, hi, delta);
    add(2 * node + 1, mid + 1, node_hi, lo, hi, delta);
    nodes_[node].max =
        nodes_[node].pending +
        std::max(nodes_[2 * node].max, nodes_[2 * node + 1].max);
    nodes_[node].min =
        nodes_[node].pending +
        std::min(nodes_[2 * node].min, nodes_[2 * node + 1].min);
  }

  std::int64_t query_max(std::size_t node, std::size_t node_lo,
                         std::size_t node_hi, std::size_t lo, std::size_t hi,
                         std::int64_t acc) const {
    if (hi < node_lo || node_hi < lo) {
      return std::numeric_limits<std::int64_t>::min();
    }
    if (lo <= node_lo && node_hi <= hi) return acc + nodes_[node].max;
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    const std::int64_t with_pending = acc + nodes_[node].pending;
    return std::max(
        query_max(2 * node, node_lo, mid, lo, hi, with_pending),
        query_max(2 * node + 1, mid + 1, node_hi, lo, hi, with_pending));
  }

  std::int64_t query_min(std::size_t node, std::size_t node_lo,
                         std::size_t node_hi, std::size_t lo, std::size_t hi,
                         std::int64_t acc) const {
    if (hi < node_lo || node_hi < lo) {
      return std::numeric_limits<std::int64_t>::max();
    }
    if (lo <= node_lo && node_hi <= hi) return acc + nodes_[node].min;
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    const std::int64_t with_pending = acc + nodes_[node].pending;
    return std::min(
        query_min(2 * node, node_lo, mid, lo, hi, with_pending),
        query_min(2 * node + 1, mid + 1, node_hi, lo, hi, with_pending));
  }

  std::size_t n_;
  std::vector<Node> nodes_;
};

// ---------------------------------------------------------------------------
// Polymatroid greedy for unit slices.
// ---------------------------------------------------------------------------

inline offline::OfflineResult unit_optimal(const Stream& stream, Bytes buffer,
                                           Bytes rate) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(stream.unit_slices());
  offline::OfflineResult result;
  result.accepted_per_run.assign(stream.run_count(), 0);
  if (stream.empty()) return result;

  const Time horizon = stream.horizon();
  const auto n = static_cast<std::size_t>(horizon) + 1;
  RangeAddTree g(n, /*base=*/0, /*step=*/-rate);

  std::vector<std::size_t> order(stream.run_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto runs = stream.runs();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = runs[a].byte_value();
    const double vb = runs[b].byte_value();
    if (va != vb) return va > vb;
    if (runs[a].arrival != runs[b].arrival) {
      return runs[a].arrival < runs[b].arrival;
    }
    return a < b;
  });

  for (std::size_t idx : order) {
    const SliceRun& run = runs[idx];
    const auto t = static_cast<std::size_t>(run.arrival);
    const std::int64_t hi = g.range_max(t + 1, n - 1);
    const std::int64_t lo = g.range_min(0, t);
    const Bytes slack = buffer - (hi - lo);
    const std::int64_t take = std::clamp<std::int64_t>(slack, 0, run.count);
    if (take == 0) continue;
    g.add(t + 1, n - 1, take);
    result.accepted_per_run[idx] = take;
    result.benefit += run.weight * static_cast<Weight>(take);
    result.accepted_bytes += take;
    result.accepted_slices += take;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Pareto DP with a full sort-and-prune after every slice and every drain.
// ---------------------------------------------------------------------------

struct State {
  Bytes occ;
  Weight weight;
};

inline void prune(std::vector<State>& states) {
  std::sort(states.begin(), states.end(), [](const State& a, const State& b) {
    if (a.occ != b.occ) return a.occ < b.occ;
    return a.weight > b.weight;
  });
  std::vector<State> kept;
  kept.reserve(states.size());
  Weight best = -1.0;
  for (const State& s : states) {
    if (s.weight > best) {
      kept.push_back(s);
      best = s.weight;
    }
  }
  states = std::move(kept);
}

struct Item {
  Bytes size;
  Weight weight;
};

/// pareto_dp_optimal's default cap on the frontier. Past it the DP keeps
/// the heaviest states and its answer is only a lower bound, so the
/// reference check asserts every run peaks below it.
inline constexpr std::size_t kStateLimit = std::size_t{1} << 20;

inline offline::ParetoDpResult dp_core(
    const std::vector<std::vector<Item>>& steps, Bytes buffer, Bytes rate,
    std::size_t state_limit) {
  offline::ParetoDpResult result;
  const Bytes transient_cap = buffer + rate;
  std::vector<State> frontier{State{.occ = 0, .weight = 0.0}};
  std::vector<State> scratch;
  for (const auto& arrivals : steps) {
    for (const Item& item : arrivals) {
      scratch.clear();
      scratch.reserve(frontier.size() * 2);
      for (const State& s : frontier) {
        scratch.push_back(s);
        const Bytes occ = s.occ + item.size;
        if (occ <= transient_cap) {
          scratch.push_back(State{.occ = occ, .weight = s.weight + item.weight});
        }
      }
      prune(scratch);
      if (scratch.size() > state_limit) {
        std::nth_element(
            scratch.begin(),
            scratch.begin() + static_cast<std::ptrdiff_t>(state_limit),
            scratch.end(),
            [](const State& a, const State& b) { return a.weight > b.weight; });
        scratch.resize(state_limit);
        prune(scratch);
      }
      frontier.swap(scratch);
      result.peak_states = std::max(result.peak_states, frontier.size());
    }
    scratch.clear();
    scratch.reserve(frontier.size());
    for (const State& s : frontier) {
      const Bytes occ = std::max<Bytes>(0, s.occ - rate);
      if (occ <= buffer) scratch.push_back(State{.occ = occ, .weight = s.weight});
    }
    prune(scratch);
    frontier.swap(scratch);
    RTS_ASSERT(!frontier.empty());
  }
  for (const State& s : frontier) {
    result.benefit = std::max(result.benefit, s.weight);
  }
  return result;
}

template <typename Resize>
std::vector<std::vector<Item>> steps_of(const Stream& stream, Resize resize) {
  std::vector<std::vector<Item>> steps(
      static_cast<std::size_t>(stream.horizon()));
  for (const SliceRun& run : stream.runs()) {
    auto& list = steps[static_cast<std::size_t>(run.arrival)];
    const Bytes size = resize(run.slice_size);
    for (std::int64_t k = 0; k < run.count; ++k) {
      list.push_back(Item{.size = size, .weight = run.weight});
    }
  }
  return steps;
}

inline offline::ParetoDpResult pareto_dp_optimal(
    const Stream& stream, Bytes buffer, Bytes rate,
    std::size_t state_limit = kStateLimit) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(state_limit >= 2);
  if (stream.empty()) return {};
  return dp_core(steps_of(stream, [](Bytes s) { return s; }), buffer, rate,
                 state_limit);
}

inline offline::OptimalBracket quantized_optimal_bracket(const Stream& stream,
                                                         Bytes buffer,
                                                         Bytes rate,
                                                         Bytes quantum) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(quantum >= 1);
  offline::OptimalBracket bracket{.quantum = quantum};
  if (stream.empty()) return bracket;
  {
    const Bytes b = buffer / quantum;
    const Bytes r = rate / quantum;
    RTS_EXPECTS(b >= 1 && r >= 1);
    const auto steps = steps_of(stream, [quantum](Bytes s) {
      return (s + quantum - 1) / quantum;
    });
    bracket.lower = dp_core(steps, b, r, 1u << 22).benefit;
  }
  {
    const Bytes b = (buffer + quantum - 1) / quantum;
    const Bytes r = (rate + quantum - 1) / quantum;
    const auto steps =
        steps_of(stream, [quantum](Bytes s) { return s / quantum; });
    bracket.upper = dp_core(steps, b, r, 1u << 22).benefit;
  }
  RTS_ENSURES(bracket.lower <= bracket.upper + 1e-9);
  return bracket;
}

}  // namespace rtsmooth::refoffline

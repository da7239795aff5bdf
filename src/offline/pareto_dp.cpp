#include "offline/pareto_dp.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth::offline {
namespace {

struct State {
  Bytes occ;
  Weight weight;
};

/// One decision item: a single slice (size may be 0 after optimistic
/// quantization, meaning "free to accept").
struct Item {
  Bytes size;
  Weight weight;
};

/// Folds one slice into the frontier, writing the next frontier to `out`:
/// the merge, in occupancy order, of the drop list (the frontier itself) and
/// the keep list (the prefix that fits `cap`, shifted by the slice). Both
/// lists are sorted, so one pass visits every state in occupancy order,
/// heavier first on equal occupancy, and keeps exactly the non-dominated
/// ones: those strictly heavier than the last one kept. Their occupancies
/// are distinct integers in [0, cap].
void fold_slice(const std::vector<State>& frontier, const Item& item,
                Bytes cap, std::vector<State>& out) {
  out.clear();
  out.reserve(2 * frontier.size());
  Weight best = -1.0;
  const auto emit = [&out, &best](const State& s) {
    if (s.weight > best) {
      out.push_back(s);
      best = s.weight;
    }
  };
  const std::size_t n = frontier.size();
  std::size_t drop = 0;
  for (const State& base : frontier) {
    if (base.occ + item.size > cap) break;
    const State keep{.occ = base.occ + item.size,
                     .weight = base.weight + item.weight};
    while (drop < n && (frontier[drop].occ < keep.occ ||
                        (frontier[drop].occ == keep.occ &&
                         frontier[drop].weight >= keep.weight))) {
      emit(frontier[drop++]);
    }
    emit(keep);
  }
  while (drop < n) emit(frontier[drop++]);
}

/// Work-conserving send of up to `rate` bytes, in place: the states at or
/// below `rate` all drain to occupancy 0, where the last (heaviest) of them
/// dominates the rest; the others shift down by `rate`, staying sorted, until
/// the first that would exceed `buffer` ends the frontier.
void drain(std::vector<State>& frontier, Bytes buffer, Bytes rate) {
  auto first = std::partition_point(
      frontier.begin(), frontier.end(),
      [rate](const State& s) { return s.occ <= rate; });
  if (first != frontier.begin()) --first;
  auto out = frontier.begin();
  for (; first != frontier.end(); ++first) {
    const Bytes occ = std::max<Bytes>(0, first->occ - rate);
    if (occ > buffer) break;
    *out++ = State{.occ = occ, .weight = first->weight};
  }
  frontier.erase(out, frontier.end());
}

/// Core DP over per-step item lists. See the header for the model: fold
/// each slice as keep/drop with transient cap buffer+rate, then drain
/// `rate` and require post-send occupancy <= buffer. Invariant between
/// operations: along the frontier, occupancy and weight both strictly
/// increase, so it never holds more than buffer + rate + 1 states.
ParetoDpResult dp_core(const std::vector<std::vector<Item>>& steps,
                       Bytes buffer, Bytes rate) {
  ParetoDpResult result;
  const Bytes transient_cap = buffer + rate;
  std::vector<State> frontier{State{.occ = 0, .weight = 0.0}};
  std::vector<State> scratch;
  for (const auto& arrivals : steps) {
    for (const Item& item : arrivals) {
      fold_slice(frontier, item, transient_cap, scratch);
      frontier.swap(scratch);
      result.peak_states = std::max(result.peak_states, frontier.size());
    }
    drain(frontier, buffer, rate);
    RTS_ASSERT(!frontier.empty());  // some state always fits after the send
  }
  result.benefit = frontier.back().weight;  // the heaviest state
  return result;
}

/// Expands a stream into per-step item lists, transforming each slice size
/// with `resize` (identity for the exact solver, the two roundings for the
/// bracket).
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

}  // namespace

ParetoDpResult pareto_dp_optimal(const Stream& stream, Bytes buffer,
                                 Bytes rate) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  if (stream.empty()) return {};
  return dp_core(steps_of(stream, [](Bytes s) { return s; }), buffer, rate);
}

OptimalBracket quantized_optimal_bracket(const Stream& stream, Bytes buffer,
                                         Bytes rate, Bytes quantum) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(quantum >= 1);
  OptimalBracket bracket{.quantum = quantum};
  if (stream.empty()) return bracket;

  // Pessimistic instance: sizes up, capacity down. Feasible there =>
  // feasible in truth (occupancies dominate step by step), so the DP value
  // is achievable.
  {
    const Bytes b = buffer / quantum;
    const Bytes r = rate / quantum;
    RTS_EXPECTS(b >= 1 && r >= 1);  // quantum must not erase the resources
    const auto steps = steps_of(stream, [quantum](Bytes s) {
      return (s + quantum - 1) / quantum;
    });
    bracket.lower = dp_core(steps, b, r).benefit;
  }
  // Optimistic instance: sizes down, capacity up. Every truly feasible
  // schedule stays feasible, so the DP value bounds the truth from above.
  {
    const Bytes b = (buffer + quantum - 1) / quantum;
    const Bytes r = (rate + quantum - 1) / quantum;
    const auto steps =
        steps_of(stream, [quantum](Bytes s) { return s / quantum; });
    bracket.upper = dp_core(steps, b, r).benefit;
  }
  RTS_ENSURES(bracket.lower <= bracket.upper + 1e-9);
  return bracket;
}

}  // namespace rtsmooth::offline

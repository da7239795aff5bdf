// Exact off-line optimal for variable-size slices (the comparator labelled
// "Optimal" in Figs. 5-6, whole-frame model), by dynamic programming over
// buffer occupancy with Pareto pruning.
//
// Correctness: off-line, drops normalize to arrival time, so a schedule is a
// keep/drop choice per slice; the only state the future depends on is the
// post-send occupancy Q(t) (the drain is deterministic work-conserving
// FIFO). For each step we keep the set of non-dominated (occupancy, weight)
// pairs — a state is dominated when another has occupancy <= and weight >=.
// A dominated state can never lead to a better completion (occupancy enters
// all future constraints monotonically), so pruning preserves optimality and
// the result is exact.
//
// Cost: the frontier stays sorted by occupancy (and so by weight), so each
// slice is one linear merge of the frontier with its shifted prefix and each
// step's drain one in-place pass: O(frontier) per slice. Its occupancies are
// distinct integers, at most buffer + rate after a slice and at most buffer
// after the drain, so the frontier never holds more than buffer + rate + 1
// states: a run takes O(slices * (buffer + rate)) time and
// O(buffer + rate) memory. The bound is reached in practice: on Fig. 5's
// 1200-frame whole-frame clip at the average rate the frontier peaks at
// exactly buffer + rate + 1 states (152k at one largest frame of buffer,
// 3.2M at 26).

#pragma once

#include <cstddef>

#include "core/slice.h"
#include "core/types.h"
#include "offline/unit_optimal.h"

namespace rtsmooth::offline {

struct ParetoDpResult {
  Weight benefit = 0.0;
  std::size_t peak_states = 0;  ///< largest frontier seen (diagnostics)
};

/// Optimal benefit for `stream` with server buffer `buffer` and rate `rate`.
/// Exact for arbitrary slice sizes; intended for streams whose per-step
/// slice counts are small (whole frames, packets). For unit slices prefer
/// unit_optimal, which is O(n log n + n log T); tests cross-validate the two.
ParetoDpResult pareto_dp_optimal(const Stream& stream, Bytes buffer,
                                 Bytes rate);

/// Provable bracket on the variable-size optimum via size quantization —
/// the workhorse for long whole-frame clips, where the exact DP's
/// buffer + rate + 1 states cost seconds per point (10-14 s at Fig. 5's
/// largest buffer) and the bracket's grid of (buffer+rate)/quantum states
/// costs milliseconds.
///
///   lower: DP on the *pessimistic* rounding (slice sizes rounded UP to
///          `quantum`, buffer and rate rounded DOWN) — every schedule
///          feasible there is feasible in the true instance, so this is an
///          achievable benefit: a valid lower bound.
///   upper: DP on the *optimistic* rounding (sizes DOWN, capacity UP) —
///          every truly feasible schedule is feasible there, so its optimum
///          upper-bounds the true one.
///
/// Occupancy states live on a grid of (buffer+rate)/quantum points, so each
/// DP runs in O(slices * (buffer+rate)/quantum). Shrinking `quantum` tightens
/// the bracket at linear cost.
struct OptimalBracket {
  Weight lower = 0.0;
  Weight upper = 0.0;
  Bytes quantum = 1;
};

OptimalBracket quantized_optimal_bracket(const Stream& stream, Bytes buffer,
                                         Bytes rate, Bytes quantum);

}  // namespace rtsmooth::offline

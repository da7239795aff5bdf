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
// step's drain one in-place pass: O(frontier) per slice. The frontier is not
// small: on MPEG-like whole-frame clips with a buffer of twice the largest
// frame it peaks at about 270k states (micro_offline's BM_ParetoDp).
// `state_limit` guards pathological growth — if it is ever hit, the solver
// keeps the best `limit` states by weight and sets `exact = false` so
// callers can tell an exact answer from a (still feasible) lower bound.

#pragma once

#include <cstddef>

#include "core/slice.h"
#include "core/types.h"
#include "offline/unit_optimal.h"

namespace rtsmooth::offline {

struct ParetoDpResult {
  Weight benefit = 0.0;
  bool exact = true;          ///< false iff the state limit truncated search
  std::size_t peak_states = 0;  ///< largest frontier seen (diagnostics)
};

/// Optimal benefit for `stream` with server buffer `buffer` and rate `rate`.
/// Exact for arbitrary slice sizes; intended for streams whose per-step
/// slice counts are small (whole frames, packets). For unit slices prefer
/// unit_optimal, which is O(n log n + n log T); tests cross-validate the two.
ParetoDpResult pareto_dp_optimal(const Stream& stream, Bytes buffer,
                                 Bytes rate,
                                 std::size_t state_limit = 1u << 20);

/// Provable bracket on the variable-size optimum via size quantization —
/// the workhorse for long whole-frame clips where the exact DP's frontier
/// explodes (it is exponential in the backlog depth in the worst case).
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

// Exact off-line optimal for unit-size slices (the comparator labelled
// "Optimal" in the paper's Figs. 2-4, byte-slice model).
//
// Why greedy-by-value is exact here: with unit slices, an accepted byte
// arriving at t must be transmitted in a link slot in [t, t + B/R] (FIFO +
// work conservation, Lemma 3.2), and slots hold R bytes each. The feasible
// sets are therefore the independent sets of a transversal matroid (bytes
// matched to slot capacities); run-length aggregation turns it into an
// integral polymatroid. For matroids/polymatroids, greedy in decreasing
// weight with exact feasibility slack maximizes total weight.
//
// The slack computation avoids quantifying over intervals: let
// F(t) = sum_{i<=t} (a(i) - R) be the drain-adjusted prefix sum of accepted
// bytes, and G(j) = F(j-1) with G(0) = 0 the curve both paths keep, which
// starts as G(j) = -R*j. The interval constraint "for all t1<=t2 containing
// t: a[t1..t2] <= B + R*len" becomes F(t2) - F(t1-1) <= B, so the max
// insertable at t is  B - (max_{u>t} G(u) - min_{v<=t} G(v)),  and
// accepting k bytes at t adds k to G on (t, T]. The greedy order is
// decreasing byte value, then arrival, then index. Two paths compute it,
// with the same answer bit for bit; the input alone picks one:
//
//  * Many byte values: one stable sort by value fixes the order, and a
//    segment tree over G answers the slack and then adds the accepted bytes
//    in two walks of the leaf-to-root path of t (segment_tree.h), O(log T)
//    per run: O(n log n + n log T) in total.
//  * Few byte values (the frame-type value models give three or four): the
//    runs of one value class are taken in arrival order, so when the class's
//    run at t comes up, every run it accepted so far (`acc` bytes in all)
//    arrived at or before t. Hence
//      - max G over (t, T] is the class-start suffix max plus acc, and
//      - min G over [0, t] is a running min of G(p) plus what the class
//        accepted before p, folded forward up to t.
//    One backward pass (suffix maxima) and one forward pass (the fold) per
//    class, over G held flat, replace the tree: O(k T + n log k) for k
//    classes, grouped by a counting sort.
//
// class_pass_limit() is the choice: k passes over the T + 1 cells of G
// against n tree walks of bit_width(T + 1) levels.

#pragma once

#include <vector>

#include "core/slice.h"
#include "core/types.h"

namespace rtsmooth::offline {

struct OfflineResult {
  Weight benefit = 0.0;       ///< total accepted weight
  Bytes accepted_bytes = 0;
  std::int64_t accepted_slices = 0;
  /// Slices accepted from each run (indexed like stream.runs()); empty for
  /// solvers that do not reconstruct the selection.
  std::vector<std::int64_t> accepted_per_run;
};

/// Computes the optimal benefit for `stream` with server buffer `buffer` and
/// link rate `rate`. Requires stream.unit_slices() (Lmax == 1) — for
/// variable sizes use pareto_dp_optimal, which is exact for any sizes.
OfflineResult unit_optimal(const Stream& stream, Bytes buffer, Bytes rate);

/// The most distinct byte values for which unit_optimal takes one pass per
/// value class: `runs` * bit_width(horizon + 1) / (horizon + 1) + 1. A
/// stream of `runs` runs arriving in [0, horizon) with more values walks the
/// tree.
std::size_t class_pass_limit(std::size_t runs, Time horizon);

}  // namespace rtsmooth::offline

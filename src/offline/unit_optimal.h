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
// bytes. The interval constraint "for all t1<=t2 containing t:
// a[t1..t2] <= B + R*len" becomes F(t2) - F(t1-1) <= B, so the max insertable
// at t is  B - (max_{u>=t} F(u) - min_{v<t} F(v)).  A segment tree over F
// answers that and then adds the accepted bytes after t in two walks of
// the leaf-to-root path of t (segment_tree.h), O(log T) per run. With the
// one stable sort by byte value that fixes the greedy order, the solver is
// O(n log n + n log T) in total.

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

}  // namespace rtsmooth::offline

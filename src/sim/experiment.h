// Experiment helpers shared by the figure benches and examples: the
// per-policy outcome of a sweep cell, and the off-line optimal comparator
// computed with the right solver for the stream's slice model.

#pragma once

#include <string>

#include "core/metrics.h"
#include "core/slice.h"

namespace rtsmooth::sim {

struct PolicyOutcome {
  std::string policy;
  SimReport report;

  bool operator==(const PolicyOutcome&) const = default;
};

struct OptimalPoint {
  double weighted_loss = 0.0;
  double benefit_fraction = 1.0;
  bool exact = true;  ///< false iff taken from an open bracket's midpoint

  bool operator==(const OptimalPoint&) const = default;
};

/// Off-line optimal for the server-side problem (buffer B, rate R): the
/// exact polymatroid greedy for unit slices, the exact Pareto DP for
/// variable-size streams of at most 256 slices, and above that the midpoint
/// of the quantized bracket (offline/pareto_dp.h), whose grid keeps a long
/// clip's point at milliseconds where the DP takes seconds.
OptimalPoint offline_optimal(const Stream& stream, Bytes buffer, Bytes rate);

}  // namespace rtsmooth::sim

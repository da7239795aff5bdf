// The Greedy algorithm (paper Sect. 4.1): on overflow, discard the slices
// with the lowest byte value w(s)/|s|, one by one in increasing byte-value
// order, until occupancy is back under the bound. Never preempts the slice
// in transmission (ServerBuffer enforces that).
//
// Theorem 4.1 proves this policy 4B/(B-2Lmax+2)-competitive; Theorem 4.7
// shows it can be forced to a ratio of 2 - eps.

#pragma once

#include "core/drop_policy.h"

namespace rtsmooth {

/// Sheds lowest-byte-value slices until occupancy <= target, breaking ties
/// towards newer chunks (the paper allows arbitrary tie-breaking; newest
/// keeps the policy deterministic). The rule itself is shed::greedy_shed
/// (policies/shed_algorithms.h), which the proactive policy and the
/// daemon's value floor share.
class GreedyDropPolicy final : public DropPolicy {
 public:
  GreedyDropPolicy() = default;

  DropResult shed(ServerBuffer& buf, Bytes target) override;
  std::string_view name() const override { return "greedy"; }
  std::unique_ptr<DropPolicy> clone() const override;
};

}  // namespace rtsmooth

// Drop-policy interface.
//
// The generic algorithm of Sect. 3.1 deliberately leaves the *identity* of
// dropped slices unspecified — "the server is free to discard what seems to
// be the least damaging data". This interface is that degree of freedom:
// Theorem 3.5's throughput optimality holds for every implementation, while
// the weighted benefit (Sect. 4) depends on the choice (Greedy vs Tail-Drop
// vs ...).

#pragma once

#include <memory>
#include <string_view>

#include "core/server_buffer.h"
#include "core/types.h"

namespace rtsmooth {

/// Strategy deciding *which* slices to discard on overflow.
///
/// Contract for `shed`: called with buf.occupancy() > target; must drop
/// whole droppable slices until buf.occupancy() <= target. The buffer always
/// contains enough droppable bytes for this to be possible (the in-flight
/// head slice is accounted for by the caller). Implementations must never
/// touch non-droppable slices; ServerBuffer enforces that with contracts.
class DropPolicy {
 public:
  virtual ~DropPolicy() = default;

  DropPolicy(const DropPolicy&) = delete;
  DropPolicy& operator=(const DropPolicy&) = delete;

  /// Sheds slices until occupancy <= target. Returns the total dropped.
  virtual DropResult shed(ServerBuffer& buf, Bytes target) = 0;

  /// Hook invoked once per step before arrivals, enabling "early drop"
  /// (pro-active) policies (paper Sect. 2.1 / open problem in Sect. 6).
  /// `target` is the configured buffer bound B. Default: no early drops.
  virtual DropResult early_drop(ServerBuffer& buf, Bytes target, Time now);

  virtual std::string_view name() const = 0;

  /// Fresh instance with the same configuration (policies are stateful —
  /// e.g. RandomDrop's RNG — so sweeps clone rather than share).
  virtual std::unique_ptr<DropPolicy> clone() const = 0;

 protected:
  DropPolicy() = default;
};

inline DropResult DropPolicy::early_drop(ServerBuffer&, Bytes, Time) {
  return {};
}

}  // namespace rtsmooth

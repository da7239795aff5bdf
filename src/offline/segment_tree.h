// Path-query segment tree over int64, the many-valued path of the off-line
// unit-slice optimal (see unit_optimal.h): it maintains the prefix-sum curve
// G of the accepted stream, where the insertion slack at time t is
// B - (max G on (t, n) - min G on [0, t]).
//
// The solver only ever asks three things at a run's arrival t: the max of
// the suffix after t, the min of the prefix through t, and an add to the
// suffix after t. All three are decided by the siblings along the
// leaf-to-root path of t, so the tree is an iterative power-of-two heap with
// two path operations, O(log n) each and with no recursion.

#pragma once

#include <cstdint>
#include <vector>

namespace rtsmooth::offline {

class RangeAddTree {
 public:
  /// Tree over indices [0, n). All values start at `init(i)` = base + step*i
  /// (an affine ramp covers both the all-zero case and the -R*t drain curve
  /// the solver starts from). Values must stay within 2^61 of zero.
  RangeAddTree(std::size_t n, std::int64_t base, std::int64_t step);

  std::size_t size() const { return n_; }

  struct Split {
    std::int64_t suffix_max;  ///< max over (t, n); INT64_MIN if t == n - 1
    std::int64_t prefix_min;  ///< min over [0, t]
  };

  /// Both sides of index t, read in one leaf-to-root walk. Requires t < n.
  Split split(std::size_t t) const;

  /// Adds `delta` to every index in (t, n). Requires t < n.
  void add_suffix(std::size_t t, std::int64_t delta);

 private:
  /// A node's max and min include its own pending `add` (which applies to
  /// its whole subtree) but not its ancestors'.
  struct Node {
    std::int64_t max;
    std::int64_t min;
    std::int64_t add;
  };

  std::size_t n_;
  /// n rounded up to a power of two. Node 1 is the root, node p has
  /// children 2p and 2p + 1, and index i is leaf node leaves_ + i.
  std::size_t leaves_;
  std::vector<Node> nodes_;
};

}  // namespace rtsmooth::offline

#include "offline/segment_tree.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.h"

namespace rtsmooth::offline {
namespace {

/// Padding leaves start at max = -kPad and min = +kPad. Real values stay
/// within 2^61 of zero, and so does the total of all adds (in the solver both
/// are bounded by R*T plus the stream's bytes), so a padding value never wins
/// a max or a min, and nothing overflows.
constexpr std::int64_t kPad = std::int64_t{1} << 62;

}  // namespace

RangeAddTree::RangeAddTree(std::size_t n, std::int64_t base, std::int64_t step)
    : n_(n), leaves_(std::bit_ceil(n)), nodes_(2 * leaves_) {
  RTS_EXPECTS(n >= 1);
  for (std::size_t i = 0; i < leaves_; ++i) {
    Node& leaf = nodes_[leaves_ + i];
    if (i < n) {
      const std::int64_t v = base + step * static_cast<std::int64_t>(i);
      leaf = Node{.max = v, .min = v, .add = 0};
    } else {
      leaf = Node{.max = -kPad, .min = kPad, .add = 0};
    }
  }
  for (std::size_t p = leaves_ - 1; p >= 1; --p) {
    nodes_[p] = Node{.max = std::max(nodes_[2 * p].max, nodes_[2 * p + 1].max),
                     .min = std::min(nodes_[2 * p].min, nodes_[2 * p + 1].min),
                     .add = 0};
  }
}

RangeAddTree::Split RangeAddTree::split(std::size_t t) const {
  RTS_EXPECTS(t < n_);
  std::size_t p = leaves_ + t;
  std::int64_t hi = -kPad;
  std::int64_t lo = nodes_[p].min;  // the leaf itself is in [0, t]
  while (p > 1) {
    // The sibling of a right child lies in [0, t]; of a left child, in (t, n).
    const Node& sibling = nodes_[p ^ 1];
    const bool right_child = (p & 1) != 0;
    lo = right_child ? std::min(lo, sibling.min) : lo;
    hi = right_child ? hi : std::max(hi, sibling.max);
    p >>= 1;
    hi += nodes_[p].add;
    lo += nodes_[p].add;
  }
  if (t + 1 == n_) hi = std::numeric_limits<std::int64_t>::min();
  return Split{.suffix_max = hi, .prefix_min = lo};
}

void RangeAddTree::add_suffix(std::size_t t, std::int64_t delta) {
  RTS_EXPECTS(t < n_);
  std::size_t p = leaves_ + t;
  // The path's own values, carried up so each parent is recomputed from its
  // two children without reloading the one just stored.
  std::int64_t hi = nodes_[p].max;
  std::int64_t lo = nodes_[p].min;
  while (p > 1) {
    // The right sibling of a left child lies wholly in (t, n).
    Node& sibling = nodes_[p ^ 1];
    const std::int64_t d = (p & 1) != 0 ? 0 : delta;
    sibling.max += d;
    sibling.min += d;
    sibling.add += d;
    p >>= 1;
    Node& parent = nodes_[p];
    hi = parent.add + std::max(hi, sibling.max);
    lo = parent.add + std::min(lo, sibling.min);
    parent.max = hi;
    parent.min = lo;
  }
}

}  // namespace rtsmooth::offline

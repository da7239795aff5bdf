#include "gateway/sharing.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth::gateway {
namespace {

/// floor(budget * part / total) without overflow: all inputs are
/// non-negative int64 byte counts, so the product needs (and fits) 128 bits.
Bytes weighted_floor(Bytes budget, Bytes part, Bytes total) {
  RTS_ASSERT(total > 0);
  return static_cast<Bytes>(static_cast<__uint128_t>(budget) *
                            static_cast<__uint128_t>(part) /
                            static_cast<__uint128_t>(total));
}

}  // namespace

std::string_view to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::Static: return "static";
    case SharePolicy::WeightedShare: return "weighted-share";
    case SharePolicy::Priority: return "priority";
  }
  return "static";
}

std::optional<SharePolicy> parse_share_policy(std::string_view name) {
  if (name == "static") return SharePolicy::Static;
  if (name == "weighted-share") return SharePolicy::WeightedShare;
  if (name == "priority") return SharePolicy::Priority;
  return std::nullopt;
}

void water_fill(Bytes budget, std::span<const double> weights,
                std::span<const Bytes> demand, std::span<Bytes> out) {
  RTS_ASSERT(weights.size() == demand.size() && out.size() == demand.size());
  std::fill(out.begin(), out.end(), Bytes{0});
  Bytes remaining = std::max<Bytes>(budget, 0);
  for (const Bytes d : demand) RTS_ASSERT(d >= 0);

  // The active classes are the ones still below their demand, visited in
  // ascending index; a class leaves the set when it is granted its whole
  // demand. The set shrinks by at least one class per outer round, so the
  // loop runs at most |classes| times. Class count is small (a handful of
  // service tiers), so the O(C^2) worst case is irrelevant next to the
  // per-stream work it feeds, and nothing here allocates: the gateway calls
  // this every step.
  const std::size_t classes = demand.size();
  const auto active = [&](std::size_t k) { return out[k] < demand[k]; };
  while (remaining > 0) {
    std::size_t hungry = 0;
    double total_w = 0.0;
    for (std::size_t k = 0; k < classes; ++k) {
      if (!active(k)) continue;
      ++hungry;
      total_w += weights[k];
    }
    if (hungry == 0) break;  // every class is granted its demand
    RTS_ASSERT(total_w > 0.0);

    // Weighted share of the *current* remainder, as an exact integer:
    // scale the double weights to a common 2^20 grid first so the division
    // below is pure integer arithmetic (bit-identical on every platform).
    constexpr std::int64_t kGrid = 1 << 20;
    const auto grid = [&](std::size_t k) {
      return std::max<std::int64_t>(
          1, static_cast<std::int64_t>(weights[k] / total_w * kGrid));
    };
    std::int64_t grid_total = 0;
    for (std::size_t k = 0; k < classes; ++k) {
      if (active(k)) grid_total += grid(k);
    }

    // Pass 1: fully satisfy every class whose remaining need fits inside
    // its share; their surplus returns to the pool for the next round.
    bool satisfied_any = false;
    for (std::size_t k = 0; k < classes; ++k) {
      if (!active(k)) continue;
      const Bytes share = weighted_floor(remaining, grid(k), grid_total);
      const Bytes need = demand[k] - out[k];
      if (need <= share) {
        out[k] = demand[k];
        remaining -= need;
        satisfied_any = true;
      }
    }
    if (satisfied_any) continue;

    // Every class wants more than its share: grant the floors, then the
    // sub-share remainder one byte at a time in index order (each active
    // class strictly needs more than its floor, so it stays active and +1
    // never overshoots).
    Bytes granted = 0;
    for (std::size_t k = 0; k < classes; ++k) {
      if (!active(k)) continue;
      const Bytes share = weighted_floor(remaining, grid(k), grid_total);
      out[k] += share;
      granted += share;
    }
    Bytes leftover = remaining - granted;
    for (std::size_t k = 0; k < classes && leftover > 0; ++k) {
      if (active(k)) {
        ++out[k];
        --leftover;
      }
    }
    remaining = leftover;
    break;  // nothing left to redistribute: every class is below demand
  }
}

void apportion(Bytes budget, std::span<const Bytes> demand,
               std::span<Bytes> out) {
  RTS_ASSERT(out.size() == demand.size());
  std::fill(out.begin(), out.end(), Bytes{0});
  if (budget <= 0) return;

  Bytes total = 0;
  for (const Bytes d : demand) {
    RTS_ASSERT(d >= 0);
    total += d;
  }
  if (total == 0) return;
  if (total <= budget) {
    std::copy(demand.begin(), demand.end(), out.begin());
    return;
  }

  Bytes granted = 0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    out[i] = weighted_floor(budget, demand[i], total);
    granted += out[i];
  }
  Bytes leftover = budget - granted;
  for (std::size_t i = 0; i < demand.size() && leftover > 0; ++i) {
    const Bytes extra = std::min(leftover, demand[i] - out[i]);
    out[i] += extra;
    leftover -= extra;
  }
}

}  // namespace rtsmooth::gateway

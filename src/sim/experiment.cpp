#include "sim/experiment.h"

#include <algorithm>

#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"

namespace rtsmooth::sim {

OptimalPoint offline_optimal(const Stream& stream, Bytes buffer, Bytes rate) {
  OptimalPoint point;
  const Weight total = stream.total_weight();
  if (total <= 0.0) return point;
  Weight benefit = 0.0;
  if (stream.unit_slices()) {
    benefit = offline::unit_optimal(stream, buffer, rate).benefit;
  } else if (stream.total_slices() <= 256) {
    benefit = offline::pareto_dp_optimal(stream, buffer, rate).benefit;
  } else {
    // Long variable-size streams: the exact DP costs O(slices * (B + R)),
    // seconds per point on a full clip, so take the midpoint of the provable
    // quantized bracket (see pareto_dp.h) at a ~1/2048 resolution of the
    // buffer, but never coarser than the rate, which would round the rate
    // down to nothing.
    const Bytes quantum = std::max<Bytes>(1, std::min(buffer / 2048, rate));
    const auto bracket =
        offline::quantized_optimal_bracket(stream, buffer, rate, quantum);
    benefit = (bracket.lower + bracket.upper) / 2.0;
    point.exact = bracket.upper - bracket.lower < 1e-9;
  }
  point.benefit_fraction = benefit / total;
  point.weighted_loss = 1.0 - point.benefit_fraction;
  return point;
}

}  // namespace rtsmooth::sim

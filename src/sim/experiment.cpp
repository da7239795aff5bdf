#include "sim/experiment.h"

#include <algorithm>

#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "sim/runner.h"
#include "sim/simulator.h"

namespace rtsmooth::sim {

std::vector<PolicyOutcome> run_policies(const Stream& stream, const Plan& plan,
                                        std::span<const std::string> policies,
                                        Time link_delay, unsigned threads) {
  std::vector<PolicyOutcome> out(policies.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    out[i].policy = policies[i];
    tasks.push_back([&stream, &plan, &out, link_delay, i] {
      out[i].report = simulate(stream, plan, out[i].policy, link_delay);
    });
  }
  ParallelRunner(threads).run(std::move(tasks));
  return out;
}

OptimalPoint offline_optimal(const Stream& stream, Bytes buffer, Bytes rate) {
  OptimalPoint point;
  const Weight total = stream.total_weight();
  if (total <= 0.0) return point;
  Weight benefit = 0.0;
  if (stream.unit_slices()) {
    benefit = offline::unit_optimal(stream, buffer, rate).benefit;
  } else if (stream.total_slices() <= 256) {
    const auto dp = offline::pareto_dp_optimal(stream, buffer, rate);
    benefit = dp.benefit;
    point.exact = dp.exact;
  } else {
    // Long variable-size streams: the exact frontier explodes, so take the
    // midpoint of the provable quantized bracket (see pareto_dp.h) at a
    // ~1/2048 resolution of the buffer, but never coarser than the rate, which
    // would round the rate down to nothing.
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

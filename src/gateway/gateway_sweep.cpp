#include "gateway/gateway_sweep.h"

#include <stdexcept>
#include <utility>

namespace rtsmooth::gateway {
namespace {

GatewayReport run_cell(const GatewaySweepSpec& spec, std::size_t streams,
                       Bytes rate, SharePolicy policy,
                       obs::Telemetry telemetry) {
  GatewayConfig config = spec.base;
  config.rate = rate;
  config.sharing = policy;
  config.threads = 1;  // the grid is the unit of parallelism
  config.telemetry = telemetry;
  Gateway gateway(std::move(config));
  for (std::size_t i = 0; i < streams; ++i) {
    gateway.add_stream(spec.stream_factory(i));
  }
  gateway.run(spec.steps);
  return gateway.report();
}

}  // namespace

GatewaySweepResult sweep(const GatewaySweepSpec& spec) {
  if (spec.stream_counts.empty()) {
    throw std::invalid_argument("gateway sweep: no stream counts to run");
  }
  if (spec.policies.empty()) {
    throw std::invalid_argument("gateway sweep: no sharing policies to run");
  }
  if (!spec.stream_factory) {
    throw std::invalid_argument("gateway sweep: stream_factory is required");
  }
  if (spec.steps < 1) {
    throw std::invalid_argument("gateway sweep: steps must be >= 1");
  }
  if (const std::string problem = spec.base.validate(); !problem.empty()) {
    throw std::invalid_argument("gateway sweep: base config: " + problem);
  }

  GatewaySweepResult result;
  result.points.resize(spec.stream_counts.size());
  const std::size_t cells =
      spec.stream_counts.size() * spec.policies.size();
  sim::CellTelemetry telemetry(spec.registry, nullptr, cells);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(cells);
  for (std::size_t p = 0; p < spec.stream_counts.size(); ++p) {
    GatewaySweepPoint* point = &result.points[p];
    point->streams = spec.stream_counts[p];
    point->rate =
        spec.rate_per_stream > 0
            ? spec.rate_per_stream * static_cast<Bytes>(point->streams)
            : spec.base.rate;
    point->policies.resize(spec.policies.size());
    for (std::size_t q = 0; q < spec.policies.size(); ++q) {
      const std::size_t k = tasks.size();
      GatewayPolicyOutcome* outcome = &point->policies[q];
      outcome->policy = spec.policies[q];
      tasks.push_back([&spec, &telemetry, point, outcome, k] {
        const obs::Telemetry tel = telemetry.at(k);
        const obs::Span cell_span(tel, "gateway.sweep.cell");
        outcome->report = run_cell(spec, point->streams, point->rate,
                                   outcome->policy, tel);
      });
    }
  }

  sim::ParallelRunner runner(spec.threads);
  result.stats = runner.run(std::move(tasks), spec.progress);
  telemetry.fold();
  return result;
}

}  // namespace rtsmooth::gateway

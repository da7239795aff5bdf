#include "sim/sweep.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::sim {
namespace {

Bytes buffer_from_multiple(const Stream& stream, double multiple) {
  return static_cast<Bytes>(
      std::llround(multiple * static_cast<double>(stream.max_frame_bytes())));
}

/// The fixed link rate of a BufferMultiple / FaultSeverity sweep: explicit,
/// or the stream's average when the spec leaves it 0.
Bytes fixed_rate(const Stream& stream, const SweepSpec& spec) {
  return spec.rate > 0 ? spec.rate : relative_rate(stream, 1.0);
}

Plan plan_for_buffer(const Stream& stream, Bytes buffer, Bytes rate) {
  if (buffer < stream.max_slice_size()) {
    throw std::invalid_argument(
        "sweep: buffer (" + std::to_string(buffer) +
        " bytes) is smaller than the stream's largest slice (" +
        std::to_string(stream.max_slice_size()) +
        " bytes); grow the swept multiple or cut finer slices");
  }
  // Round the delay *up* so B = D*R never shrinks below the requested
  // size (shrinking could violate B >= Lmax for whole-frame slices).
  return Planner::from_delay_rate((buffer + rate - 1) / rate, rate);
}

SimReport fault_run(const Stream& stream, const SweepSpec& spec,
                    const Plan& plan, const std::string& policy,
                    double severity, UnderflowPolicy underflow,
                    obs::Telemetry telemetry) {
  SimConfig config = SimConfig::balanced(plan, spec.link_delay);
  config.underflow = underflow;
  config.max_stall = spec.max_stall;
  config.recovery = spec.recovery;
  config.telemetry = telemetry;
  SmoothingSimulator simulator(stream, config, make_policy(policy),
                               spec.link_factory(severity, spec.link_delay));
  return simulator.run();
}

SweepResult fault_axis_sweep(const Stream& stream, const SweepSpec& spec) {
  if (!spec.link_factory) {
    throw std::invalid_argument(
        "sweep: the FaultSeverity axis requires SweepSpec::link_factory");
  }
  if (spec.policies.empty()) {
    throw std::invalid_argument(
        "sweep: the FaultSeverity axis needs one policy in "
        "SweepSpec::policies");
  }
  const std::string& policy = spec.policies.front();
  const Plan plan =
      spec.plan ? *spec.plan
                : Planner::from_buffer_rate(
                      buffer_from_multiple(stream, spec.buffer_multiple),
                      fixed_rate(stream, spec));
  SweepResult result;
  result.faults.resize(spec.values.size());
  CellTelemetry cells(spec.registry, spec.recorder, 2 * spec.values.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(2 * spec.values.size());
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    FaultPoint* point = &result.faults[i];
    point->severity = spec.values[i];
    const std::size_t k = tasks.size();
    cells.annotate(k, "severity", point->severity);
    cells.annotate(k, "underflow", "skip");
    cells.annotate(k + 1, "severity", point->severity);
    cells.annotate(k + 1, "underflow", "stall");
    tasks.push_back([&stream, &spec, &policy, &cells, plan, point, k] {
      const obs::Telemetry tel = cells.at(k);
      const obs::Span cell_span(tel, "sweep.cell");
      point->skip = fault_run(stream, spec, plan, policy, point->severity,
                              UnderflowPolicy::Skip, tel);
    });
    tasks.push_back([&stream, &spec, &policy, &cells, plan, point, k] {
      const obs::Telemetry tel = cells.at(k + 1);
      const obs::Span cell_span(tel, "sweep.cell");
      point->stall = fault_run(stream, spec, plan, policy, point->severity,
                               UnderflowPolicy::Stall, tel);
    });
  }
  result.stats =
      ParallelRunner(spec.threads).run(std::move(tasks), spec.progress);
  cells.fold();
  return result;
}

}  // namespace

Bytes relative_rate(const Stream& stream, double fraction) {
  RTS_EXPECTS(fraction > 0.0);
  return std::max<Bytes>(
      1, static_cast<Bytes>(std::llround(fraction * stream.average_rate())));
}

SweepResult sweep(const Stream& stream, const SweepSpec& spec) {
  if (spec.axis == SweepAxis::FaultSeverity) {
    return fault_axis_sweep(stream, spec);
  }
  if (spec.policies.empty() && !spec.with_optimal) {
    throw std::invalid_argument(
        "sweep: nothing to run per point — give SweepSpec::policies at "
        "least one entry or set with_optimal");
  }
  SweepResult result;
  result.points.resize(spec.values.size());
  const std::size_t per_point =
      spec.policies.size() + (spec.with_optimal ? 1 : 0);
  CellTelemetry cells(spec.registry, spec.recorder,
                      spec.values.size() * per_point);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(spec.values.size() * per_point);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    SweepPoint* point = &result.points[i];
    point->x = spec.values[i];
    const Bytes rate = spec.axis == SweepAxis::BufferMultiple
                           ? fixed_rate(stream, spec)
                           : relative_rate(stream, point->x);
    const Bytes buffer =
        spec.axis == SweepAxis::BufferMultiple
            ? buffer_from_multiple(stream, point->x)
            : buffer_from_multiple(stream, spec.buffer_multiple);
    point->plan = plan_for_buffer(stream, buffer, rate);
    point->policies.resize(spec.policies.size());
    for (std::size_t j = 0; j < spec.policies.size(); ++j) {
      point->policies[j].policy = spec.policies[j];
      const std::size_t k = tasks.size();
      cells.annotate(k, "x", point->x);
      tasks.push_back([&stream, &spec, &cells, point, j, k] {
        const obs::Telemetry tel = cells.at(k);
        const obs::Span cell_span(tel, "sweep.cell");
        point->policies[j].report =
            simulate(stream, point->plan, point->policies[j].policy,
                     spec.link_delay, tel);
      });
    }
    if (spec.with_optimal) {
      point->has_optimal = true;
      const std::size_t k = tasks.size();
      cells.annotate(k, "x", point->x);
      tasks.push_back([&stream, &cells, point, k] {
        const obs::Span cell_span(cells.at(k), "sweep.cell");
        point->optimal =
            offline_optimal(stream, point->plan.buffer, point->plan.rate);
      });
    }
  }
  result.stats =
      ParallelRunner(spec.threads).run(std::move(tasks), spec.progress);
  cells.fold();
  return result;
}

}  // namespace rtsmooth::sim

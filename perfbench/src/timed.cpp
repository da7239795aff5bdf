#include "timed.h"

#include "core/schedule.h"
#include "policies/policy_factory.h"

namespace rtbench {

double SimLayers::server_client_s() const {
  double inner = link.seconds();
  for (const auto& [name, clock] : shed) inner += clock.seconds();
  return simulate_s() - inner;
}

void traced_simulate(const rtsmooth::Stream& stream,
                     const rtsmooth::sim::SimConfig& config,
                     const std::string& policy,
                     const rtsmooth::SimReport& expected, SimLayers& layers,
                     Report& report) {
  rtsmooth::sim::SmoothingSimulator plain(stream, config,
                                          rtsmooth::make_policy(policy));
  const auto t0 = Clock::now();
  const rtsmooth::SimReport plain_report = plain.run();
  layers.simulate_ns += ns_between(t0, Clock::now());
  layers.slots += plain_report.steps;
  report.check(plain_report == expected, "traced replay differs");

  rtsmooth::sim::SmoothingSimulator decorated(
      stream, config,
      std::make_unique<TimedPolicy>(rtsmooth::make_policy(policy),
                                    &layers.shed[policy]),
      std::make_unique<TimedLink>(
          std::make_unique<rtsmooth::FixedDelayLink>(config.link_delay),
          &layers.link));
  const auto t1 = Clock::now();
  const rtsmooth::SimReport decorated_report = decorated.run();
  layers.decorated_ns += ns_between(t1, Clock::now());
  report.check(decorated_report == expected,
               "replay behind the timing decorators differs");
}

double quiescent_slot_share(const rtsmooth::Stream& stream,
                            const rtsmooth::sim::SimConfig& config,
                            const std::string& policy) {
  rtsmooth::ScheduleRecorder recorder(
      stream.run_count(), rtsmooth::ScheduleRecorder::Level::RunsAndSteps);
  rtsmooth::sim::SmoothingSimulator simulator(stream, config,
                                              rtsmooth::make_policy(policy));
  simulator.run(&recorder);
  std::int64_t idle = 0;
  for (const rtsmooth::StepSets& s : recorder.steps()) {
    if (s.arrived == 0 && s.sent == 0 && s.delivered == 0 && s.played == 0 &&
        s.dropped_server == 0 && s.dropped_client == 0) {
      ++idle;
    }
  }
  const auto total = static_cast<double>(recorder.steps().size());
  return total > 0 ? static_cast<double>(idle) / total : 0.0;
}

}  // namespace rtbench

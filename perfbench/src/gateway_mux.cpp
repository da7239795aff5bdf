// gateway_mux — the statistical-multiplexing gateway at about 65k streams of
// a gold/silver/bronze population (seeded arrival models), in two phases:
// contended WeightedShare at ~70% provisioning with churn waves of
// remove_stream / add_stream, then uncontended Static (subscribed <= R).
// Each phase runs at the benchmark's thread width and again at threads = 1.
//
// Why it exists: it is the only workload where sim::ParallelRunner dispatch
// sits on the per-step critical path (two runs per step), so runner changes
// show here first, while the threads = 1 rate must stay flat. The Static
// phase reaches the gateway's fused uncontended path only through its
// input, so removing that path cannot pass unseen. It loads `gateway`,
// `sim` (runner) and `obs` not at all (null telemetry), and never touches
// `policies`, `offline` or the `core` simulation pipeline.
//
// One repetition, per thread width: build each phase's gateway (set-up),
// then step it (the timed job), timing every Gateway::step() call (the step
// latency is taken at threads = 1). Checks: every phase report conserves with no violations, the
// threads = 1 reports equal the parallel ones byte for byte (DESIGN.md
// Sect. 9), and every repetition reproduces the first.

#include <optional>
#include <string>
#include <vector>

#include "gateway/gateway.h"
#include "harness.h"
#include "sim/runner.h"

namespace rtbench {
namespace {

namespace gw = rtsmooth::gateway;
using rtsmooth::Bytes;
using rtsmooth::Time;

constexpr std::size_t kStreams = 65536;
constexpr int kSegments = 4;             // weighted phase: churn between them
constexpr Time kStepsPerSegment = 12;
constexpr Time kStaticSteps = 48;
const std::vector<double> kClassWeights = {12.0, 8.0, 1.0};

/// The gateway bench's gold/silver/bronze population with seeds drawn from
/// the run seed; pure in (seed, i).
gw::StreamSpec population(std::uint64_t seed, std::size_t i) {
  const std::uint64_t s = mix_seed(seed, i);
  switch (i % 3) {
    case 0:
      return {.rate = 96, .deadline = 8, .weight_class = 0,
              .arrivals = gw::ArrivalModel::vbr(64, s)};
    case 1:
      return {.rate = 48, .deadline = 16, .weight_class = 1,
              .arrivals = gw::ArrivalModel::vbr(32, s)};
    default:
      return {.rate = 24, .deadline = 32, .weight_class = 2,
              .arrivals = gw::ArrivalModel::on_off(64, 2, 6, s)};
  }
}

Bytes subscribed_rate() {
  Bytes total = 0;
  for (std::size_t i = 0; i < kStreams; ++i) total += population(0, i).rate;
  return total;
}

/// Timings and results of one phase at one thread width.
struct Phase {
  gw::GatewayReport report;
  double build_s = 0;
  double run_s = 0;
  double stream_steps = 0;
  double step_s = 0;   ///< summed Gateway::step() time
  double churn_s = 0;  ///< summed add/remove time inside the run (traced)
  std::int64_t adds = 0;
  std::int64_t removes = 0;
  double add_s = 0;  ///< summed add_stream time, build and churn (traced)
  double remove_s = 0;
  rtsmooth::sim::RunStats runner;
};

/// Builds a gateway over the population and steps it: `segments` runs of
/// `steps` steps with a churn wave between consecutive ones. Every step()
/// lands in `latency`; traced runs also time each add/remove call.
Phase run_phase(std::uint64_t seed, gw::SharePolicy sharing, Bytes rate,
                unsigned threads, int segments, Time steps, bool traced,
                LatencyHistogram* latency) {
  Phase ph;
  const auto add = [&](gw::Gateway& g, std::size_t i) {
    const auto t0 = Clock::now();
    const std::optional<gw::StreamId> id = g.add_stream(population(seed, i));
    if (traced) {
      ph.add_s += seconds_since(t0);
      ++ph.adds;
    }
    return *id;
  };

  const auto t0 = Clock::now();
  gw::Gateway g(gw::GatewayConfig{.rate = rate,
                                  .class_weights = kClassWeights,
                                  .sharing = sharing,
                                  .shards = 8,
                                  .threads = threads});
  std::vector<gw::StreamId> ids;
  ids.reserve(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) ids.push_back(add(g, i));
  ph.build_s = seconds_since(t0);

  const auto t1 = Clock::now();
  std::size_t next = kStreams;
  for (int seg = 0; seg < segments; ++seg) {
    for (Time s = 0; s < steps; ++s) {
      ph.stream_steps += static_cast<double>(g.stream_count());
      const auto c0 = Clock::now();
      g.step();
      const std::int64_t ns = ns_between(c0, Clock::now());
      latency->record_ns(ns);
      ph.step_s += static_cast<double>(ns) * 1e-9;
    }
    if (seg + 1 == segments) break;
    // Churn wave: every (seg+3)rd stream leaves and a fresh one joins.
    const auto c0 = Clock::now();
    const auto stride = static_cast<std::size_t>(seg) + 3;
    for (std::size_t i = static_cast<std::size_t>(seg); i < ids.size();
         i += stride) {
      const auto r0 = Clock::now();
      const bool removed = g.remove_stream(ids[i]).has_value();
      if (traced) {
        ph.remove_s += seconds_since(r0);
        ++ph.removes;
      }
      if (removed) ids[i] = add(g, next++);
    }
    ph.churn_s += seconds_since(c0);
  }
  ph.run_s = seconds_since(t1);
  ph.report = g.report();
  ph.runner = g.run_stats();
  return ph;
}

/// One ParallelRunner::run of `tasks` empty tasks: the runner's dispatch
/// cost (thread start-up, hand-off and join), median of many calls.
double runner_dispatch_us(unsigned threads, std::size_t tasks) {
  std::vector<double> samples;
  rtsmooth::sim::ParallelRunner runner(threads);
  for (int k = 0; k < 200; ++k) {
    std::vector<std::function<void()>> batch(tasks, [] {});
    const auto t0 = Clock::now();
    runner.run(std::move(batch));
    samples.push_back(1e6 * seconds_since(t0));
  }
  return median(std::move(samples));
}

}  // namespace

void run_gateway_mux(const Options& opts, Report& report) {
  const unsigned threads = bench_threads();
  const Bytes subscribed = subscribed_rate();
  const Bytes contended_rate = subscribed * 7 / 10;
  JobTimes e2e;
  RepSeries layer;
  // Every step at threads = 1, both phases: at full width a step's time is
  // mostly the scheduling of its pool threads on a shared host.
  StepSamples step_latency;
  LatencyHistogram weighted_steps;
  LatencyHistogram static_steps;
  std::optional<gw::GatewayReport> first;
  double weighted_loss = 0;

  RepLoop loop(opts.seconds);
  while (loop.next()) {
    for (const bool traced : {false, true}) {
      if (traced && !opts.trace) break;
      LatencyHistogram wide_steps;  // full width: not a latency sample
      const auto phases = [&](unsigned width, LatencyHistogram* w_lat,
                              LatencyHistogram* s_lat) {
        return std::pair{
            run_phase(opts.seed, gw::SharePolicy::WeightedShare,
                      contended_rate, width, kSegments, kStepsPerSegment,
                      traced, w_lat),
            run_phase(opts.seed, gw::SharePolicy::Static, subscribed, width,
                      1, kStaticSteps, traced, s_lat)};
      };
      const auto [wide_w, wide_s] =
          traced ? phases(threads, &weighted_steps, &static_steps)
                 : phases(threads, &wide_steps, &wide_steps);
      LatencyHistogram* serial =
          traced ? &wide_steps : &step_latency.next_rep();
      const auto [one_w, one_s] = phases(1, serial, serial);

      for (const Phase* ph : {&wide_w, &wide_s, &one_w, &one_s}) {
        report.check(ph->report.conserves() && ph->report.violations == 0,
                     "gateway phase: report does not conserve or counts "
                     "violations");
      }
      report.check(one_w.report == wide_w.report,
                   "gateway weighted phase: threads=1 report differs");
      report.check(one_s.report == wide_s.report,
                   "gateway static phase: threads=1 report differs");
      if (!first) {
        first = wide_w.report;
        weighted_loss = wide_w.report.weighted_loss(kClassWeights);
      } else {
        report.check(wide_w.report == *first,
                     "repetition differs from the first");
      }

      const double job_s = wide_w.run_s + wide_s.run_s;
      const double stream_steps = wide_w.stream_steps + wide_s.stream_steps;
      if (!traced) {
        e2e.setup_s.push_back(wide_w.build_s + wide_s.build_s +
                              one_w.build_s + one_s.build_s);
        e2e.job_s.push_back(job_s);
        e2e.job_1t_s.push_back(one_w.run_s + one_s.run_s);
        e2e.work = stream_steps;
        layer.add("job_s", job_s);
        continue;
      }
      layer.add("traced_s", job_s);
      layer.add("layers_s", wide_w.step_s + wide_s.step_s + wide_w.churn_s);
      layer.add("gateway.add_stream_us",
                1e6 * (wide_w.add_s + wide_s.add_s) /
                    static_cast<double>(wide_w.adds + wide_s.adds));
      layer.add("gateway.remove_stream_us",
                1e6 * wide_w.remove_s / static_cast<double>(wide_w.removes));
      layer.add("gateway.runner_busy_s",
                1e-6 * static_cast<double>(wide_w.runner.total_task_us +
                                           wide_s.runner.total_task_us));
      layer.add("gateway.runner_wall_s",
                1e-6 * static_cast<double>(wide_w.runner.wall_us +
                                           wide_s.runner.wall_us));
      layer.add("sim.runner_dispatch_us", runner_dispatch_us(threads, 8));
    }
  }

  check_reference(opts, weighted_loss, report);
  report.metric("weighted_loss", weighted_loss);
  report.metric("peak_rss_mb", peak_rss_mb());
  step_latency.report(report);
  if (!opts.trace) {
    e2e.report(report);
    return;
  }
  layer.emit_medians(report);
  report.metric("gateway.weighted.step_p50_us",
                weighted_steps.percentile_us(0.50));
  report.metric("gateway.weighted.step_p99_us",
                weighted_steps.percentile_us(0.99));
  report.metric("gateway.static.step_p50_us", static_steps.percentile_us(0.50));
  report.metric("gateway.static.step_p99_us", static_steps.percentile_us(0.99));
  report.samples("gateway.weighted.step_p99_us", weighted_steps.count());
  report.samples("gateway.static.step_p99_us", static_steps.count());
  reconcile("gateway_mux (traced step + churn calls vs untraced phases)",
            layer.min_of("layers_s"), layer.min_of("job_s"), 0.10,
            report);
  report.metric("bench.trace_overhead_s",
                layer.min_of("traced_s") - layer.min_of("job_s"));
}

}  // namespace rtbench

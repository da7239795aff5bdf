// sweep_dense — the researcher's job: a Fig. 3-style sim::sweep() over the
// buffer-multiple axis on a dense synthetic MPEG clip.
//
// Why it exists: it puts most of its work in `policies` shedding (R is 10%
// below the clip's average rate, so every cell sheds), the `offline`
// optimal comparator, the `core` buffer/link/client pipeline, the `obs`
// per-step spans (a registry is attached, as the figure benches attach one
// under --json) and the `sim` runner fan-out. It bypasses `daemon` and
// `gateway` entirely.
//
// One repetition: synthesize and slice the clip (set-up), run the sweep at
// the benchmark's thread width (the timed job), then the same sweep at
// threads = 1. The step latency is one slot of the generic algorithm: the
// policy cells at four buffer sizes are re-run serially behind a
// benchmark-owned link that times the interval between successive
// deliveries (every slot of a dense clip delivers). Checks: every report
// conserves, no Lemma 3.2-3.4 violation on the lossless link, the optimal
// weighted loss is at most each online policy's at every point, the serial
// sweep and the re-runs equal the parallel sweep, and every repetition
// equals the first.

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/telemetry.h"
#include "policies/policy_factory.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "timed.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"

namespace rtbench {
namespace {

using rtsmooth::SimReport;
using rtsmooth::Stream;
namespace sim = rtsmooth::sim;
namespace trace = rtsmooth::trace;

constexpr std::size_t kFrames = 10000;
constexpr int kPoints = 26;  // buffer multiples 1..26 of the largest frame
constexpr double kRateFraction = 0.9;
constexpr int kSlotPassEvery = 8;  // slot-timed re-runs at x = 1, 9, 17, 25

struct Clip {
  Stream stream;
  double generate_s = 0;
  double slice_s = 0;
};

Clip make_clip(std::uint64_t seed) {
  Clip clip;
  const auto t0 = Clock::now();
  trace::MpegTraceModel model(trace::MpegModelConfig{}, mix_seed(seed, 0));
  const trace::FrameSequence frames = model.generate(kFrames);
  const auto t1 = Clock::now();
  clip.stream = trace::slice_frames(frames, trace::ValueModel::mpeg_default(),
                                    trace::Slicing::ByteSlices);
  clip.generate_s = seconds_between(t0, t1);
  clip.slice_s = seconds_since(t1);
  return clip;
}

sim::SweepSpec make_spec(const Stream& stream, unsigned threads,
                         rtsmooth::obs::Registry* registry) {
  sim::SweepSpec spec;
  spec.axis = sim::SweepAxis::BufferMultiple;
  for (int m = 1; m <= kPoints; ++m) spec.values.push_back(m);
  spec.policies = {"tail-drop", "greedy"};
  spec.with_optimal = true;
  spec.rate = sim::relative_rate(stream, kRateFraction);
  spec.threads = threads;
  spec.registry = registry;
  return spec;
}

/// A FixedDelayLink that records the interval between successive
/// deliver() calls — one simulator slot each — into a histogram.
class SlotClock final : public rtsmooth::Link {
 public:
  SlotClock(rtsmooth::Time delay, LatencyHistogram* slots)
      : inner_(delay), slots_(slots) {}

  void submit(rtsmooth::Time t,
              std::vector<rtsmooth::SentPiece> pieces) override {
    inner_.submit(t, std::move(pieces));
  }
  std::vector<rtsmooth::SentPiece> deliver(rtsmooth::Time t) override {
    const auto now = Clock::now();
    if (started_) slots_->record_ns(ns_between(last_, now));
    last_ = now;
    started_ = true;
    return inner_.deliver(t);
  }
  bool idle() const override { return inner_.idle(); }
  rtsmooth::Time min_delay() const override { return inner_.min_delay(); }
  rtsmooth::Time next_activity(rtsmooth::Time now) const override {
    return inner_.next_activity(now);
  }

 private:
  rtsmooth::FixedDelayLink inner_;
  LatencyHistogram* slots_;
  Clock::time_point last_{};
  bool started_ = false;
};

/// Re-runs the policy cells of every kSlotPassEvery-th point serially,
/// timing each slot; each re-run must reproduce the sweep's cell.
void time_slots(const Stream& stream,
                const std::vector<sim::SweepPoint>& points,
                LatencyHistogram& slots, Report& report) {
  for (std::size_t i = 0; i < points.size(); i += kSlotPassEvery) {
    for (const sim::PolicyOutcome& outcome : points[i].policies) {
      rtsmooth::obs::Registry registry;
      sim::SimConfig config = sim::SimConfig::balanced(points[i].plan);
      config.telemetry.registry = &registry;
      sim::SmoothingSimulator simulator(
          stream, config, rtsmooth::make_policy(outcome.policy),
          std::make_unique<SlotClock>(config.link_delay, &slots));
      report.check(simulator.run() == outcome.report,
                   "slot-timed re-run differs from the sweep cell");
    }
  }
}

/// Checks one sweep's cells; returns the pooled report of its policy cells.
SimReport check_points(const std::vector<sim::SweepPoint>& points,
                       Report& report) {
  SimReport pooled;
  for (const sim::SweepPoint& point : points) {
    for (const sim::PolicyOutcome& outcome : point.policies) {
      const SimReport& r = outcome.report;
      std::ostringstream what;
      what << "sweep cell x=" << point.x << " " << outcome.policy;
      report.check(r.conserves() && !r.invariants.any(),
                   what.str() + ": report does not conserve or violates "
                                "a lemma on a lossless link");
      pooled += r;
    }
    bool optimal_ok = point.has_optimal;
    for (const sim::PolicyOutcome& outcome : point.policies) {
      optimal_ok = optimal_ok && point.optimal.weighted_loss <=
                                     outcome.report.weighted_loss() + 1e-12;
    }
    std::ostringstream what;
    what << "sweep cell x=" << point.x
         << " optimal: weighted loss above an online policy's";
    report.check(optimal_ok, what.str());
  }
  return pooled;
}

std::int64_t policy_slots(const std::vector<sim::SweepPoint>& points) {
  std::int64_t slots = 0;
  for (const sim::SweepPoint& point : points) {
    for (const sim::PolicyOutcome& outcome : point.policies) {
      slots += outcome.report.steps;
    }
  }
  return slots;
}

/// The traced replay of one sweep: every cell again, serially, with the
/// policy and link behind timing decorators and the optimal timed per call.
/// Each replayed cell must reproduce the sweep's result.
void traced_replay(const Stream& stream,
                   const std::vector<sim::SweepPoint>& points,
                   SimLayers& layers, LayerClock& optimal, Report& report) {
  for (const sim::SweepPoint& point : points) {
    for (const sim::PolicyOutcome& outcome : point.policies) {
      rtsmooth::obs::Registry registry;
      sim::SimConfig config = sim::SimConfig::balanced(point.plan);
      config.telemetry.registry = &registry;
      traced_simulate(stream, config, outcome.policy, outcome.report, layers,
                      report);
    }
    optimal.sample();
    const auto t0 = Clock::now();
    const sim::OptimalPoint opt =
        sim::offline_optimal(stream, point.plan.buffer, point.plan.rate);
    optimal.record(t0, Clock::now());
    report.check(opt == point.optimal,
                 "traced optimal differs from the sweep cell");
  }
}

}  // namespace

void run_sweep_dense(const Options& opts, Report& report) {
  const unsigned threads = bench_threads();
  JobTimes e2e;
  RepSeries layer;
  StepSamples slot_latency;
  std::optional<std::vector<sim::SweepPoint>> first;
  double weighted_loss = 0;

  RepLoop loop(opts.seconds);
  while (loop.next()) {
    const Clip clip = make_clip(opts.seed);
    e2e.setup_s.push_back(clip.generate_s + clip.slice_s);
    layer.add("trace.generate_s", clip.generate_s);
    layer.add("trace.slice_s", clip.slice_s);

    rtsmooth::obs::Registry registry;
    const auto t0 = Clock::now();
    const sim::SweepResult result =
        sim::sweep(clip.stream, make_spec(clip.stream, threads, &registry));
    const double job_s = seconds_since(t0);

    rtsmooth::obs::Registry serial_registry;
    sim::SweepSpec serial = make_spec(clip.stream, 1, &serial_registry);
    const auto t1 = Clock::now();
    const sim::SweepResult serial_result = sim::sweep(clip.stream, serial);
    const double job_1t_s = seconds_since(t1);
    time_slots(clip.stream, result.points, slot_latency.next_rep(), report);

    const SimReport pooled = check_points(result.points, report);
    report.check(serial_result.points == result.points,
                 "threads=1 sweep differs from the parallel sweep");
    if (!first) {
      first = result.points;
      weighted_loss = pooled.weighted_loss();
    } else {
      report.check(result.points == *first,
                   "repetition differs from the first");
    }
    e2e.work = static_cast<double>(policy_slots(result.points));
    e2e.job_s.push_back(job_s);
    e2e.job_1t_s.push_back(job_1t_s);

    if (!opts.trace) continue;
    const auto& stats = result.stats;
    layer.add("sim.sweep_wall_s", 1e-6 * static_cast<double>(stats.wall_us));
    layer.add("sim.cell_busy_s",
              1e-6 * static_cast<double>(stats.total_task_us));
    layer.add("sim.cell_max_s", 1e-6 * static_cast<double>(stats.max_task_us));
    layer.add("sim.runner_idle_share",
              1.0 - static_cast<double>(stats.total_task_us) /
                        (static_cast<double>(stats.wall_us) * stats.threads));
    const double serial_busy_s =
        1e-6 * static_cast<double>(serial_result.stats.total_task_us);
    layer.add("serial_busy_s", serial_busy_s);

    sim::SweepSpec null_spec = make_spec(clip.stream, 1, nullptr);
    const sim::SweepResult null_result = sim::sweep(clip.stream, null_spec);
    layer.add("obs.registry_overhead_s",
              serial_busy_s -
                  1e-6 * static_cast<double>(null_result.stats.total_task_us));

    SimLayers sims;
    LayerClock optimal;
    traced_replay(clip.stream, result.points, sims, optimal, report);
    const double simulate_s = sims.simulate_s();
    layer.add("sim.simulate_s", simulate_s);
    layer.add("sim.slots", static_cast<double>(sims.slots));
    layer.add("sim.ns_per_slot",
              1e9 * simulate_s / static_cast<double>(sims.slots));
    layer.add("core.link_calls", static_cast<double>(sims.link.calls()));
    layer.add("core.link_s", sims.link.seconds());
    layer.add("core.server_client_s", sims.server_client_s());
    for (const auto& [name, clock] : sims.shed) {
      layer.add("policies." + name + ".shed_calls",
                static_cast<double>(clock.calls()));
      layer.add("policies." + name + ".shed_bytes",
                static_cast<double>(clock.bytes()));
      layer.add("policies." + name + ".shed_s", clock.seconds());
    }
    layer.add("offline.optimal_calls", static_cast<double>(optimal.calls()));
    layer.add("offline.optimal_s", optimal.seconds());
    layer.add("traced_s", static_cast<double>(sims.decorated_ns) * 1e-9 +
                              optimal.seconds());
    layer.add("layers_s", simulate_s + optimal.seconds());
    if (loop.reps() == 1) {
      const sim::SweepPoint& mid = result.points[kPoints / 2];
      layer.add("core.quiescent_slot_share",
                quiescent_slot_share(clip.stream,
                                     sim::SimConfig::balanced(mid.plan),
                                     mid.policies.front().policy));
    }
  }

  check_reference(opts, weighted_loss, report);
  report.metric("weighted_loss", weighted_loss);
  report.metric("peak_rss_mb", peak_rss_mb());
  slot_latency.report(report);
  if (!opts.trace) {
    e2e.report(report);
    return;
  }
  layer.emit_medians(report);
  // The re-runs time every cell serially, so they should add up to the
  // threads = 1 sweep's summed cell time.
  reconcile("sweep_dense (traced cells vs serial sweep cell time)",
            layer.min_of("layers_s"), layer.min_of("serial_busy_s"),
            0.25, report);
  report.metric("bench.trace_overhead_s", layer.min_of("traced_s") -
                                              layer.min_of("serial_busy_s"));
}

}  // namespace rtbench

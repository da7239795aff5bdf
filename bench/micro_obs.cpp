// Microbenchmarks (google-benchmark) guarding the telemetry layer's cost
// contract (DESIGN.md): a default-constructed (null) Telemetry handle must
// leave the simulator's end-to-end throughput unchanged — compare
// BM_SimulateNoTelemetry against BM_SimulateNullHandle — while the enabled
// path's absolute overhead is tracked by BM_SimulateTelemetryOn, and on a
// sweep cell's cost mix by the BM_SimulateDenseCell pair (null handle
// against a fresh registry per run). The micro-op benches bound the
// per-call cost of the individual instruments, and the publish benches pin
// what one daemon publish costs with a full timeline ring: BM_TimelineDump
// (the series, written once per publish) and BM_JsonDump (a snapshot-sized
// tree).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "microbench_main.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace {

using namespace rtsmooth;

const Stream& clip_stream() {
  static const Stream s = trace::slice_frames(
      trace::stock_clip("cnn-news", 400), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  return s;
}

Plan reference_plan(const Stream& s) {
  return Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                   sim::relative_rate(s, 0.9));
}

// ------------------------------------------------------------- end-to-end

void BM_SimulateNoTelemetry(benchmark::State& state) {
  const Stream& s = clip_stream();
  const Plan plan = reference_plan(s);
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, plan, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateNoTelemetry);

// The null handle travels through SimConfig but resolves no instruments;
// this must match BM_SimulateNoTelemetry (the <= 2% acceptance gate).
void BM_SimulateNullHandle(benchmark::State& state) {
  const Stream& s = clip_stream();
  const sim::SimConfig config =
      sim::SimConfig::balanced(reference_plan(s));  // telemetry left null
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateNullHandle);

void BM_SimulateTelemetryOn(benchmark::State& state) {
  const Stream& s = clip_stream();
  sim::SimConfig config = sim::SimConfig::balanced(reference_plan(s));
  obs::Registry registry;
  config.telemetry = obs::Telemetry{.registry = &registry};
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateTelemetryOn);

// One cell of a Fig. 3-style buffer sweep on a dense synthetic clip, as
// perfbench's sweep_dense runs it: 2,000 MPEG-model frames in byte slices,
// R = 0.9x average so the server sheds, B = 4x the largest frame. Arg 0 is
// the null handle; arg 1 attaches a fresh registry per run, as sweep()
// gives every cell one, so resolving the instruments counts too.
void BM_SimulateDenseCell(benchmark::State& state) {
  static const Stream s = trace::slice_frames(
      trace::MpegTraceModel(trace::MpegModelConfig{}, 1).generate(2000),
      trace::ValueModel::mpeg_default(), trace::Slicing::ByteSlices);
  const sim::SimConfig base = sim::SimConfig::balanced(Planner::from_buffer_rate(
      4 * s.max_frame_bytes(), sim::relative_rate(s, 0.9)));
  const bool with_registry = state.range(0) != 0;
  for (auto _ : state) {
    obs::Registry registry;
    sim::SimConfig config = base;
    if (with_registry) config.telemetry.registry = &registry;
    const SimReport report = sim::simulate(s, config, "tail-drop");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateDenseCell)->ArgName("registry")->Arg(0)->Arg(1);

// A flight recorder rides the same Telemetry handle: every step lands in
// its ring (obs/flight_recorder.h). Its absolute overhead is tracked here;
// the *disabled* path is the null handle above.
void BM_SimulateFlightRecorderOn(benchmark::State& state) {
  const Stream& s = clip_stream();
  sim::SimConfig config = sim::SimConfig::balanced(reference_plan(s));
  for (auto _ : state) {
    obs::FlightRecorder recorder;
    config.telemetry = obs::Telemetry{.recorder = &recorder};
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateFlightRecorderOn);

// -------------------------------------------------------------- micro-ops

void BM_CounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.add(1);
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram(
      "bench.histogram", obs::HistogramSpec::exponential(1, 32));
  std::int64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = (value * 5 + 3) % 100000;  // wander across buckets
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder;  // default 256-step window, no trigger
  obs::StepRecord step;
  for (auto _ : state) {
    ++step.t;
    step.sent = (step.sent + 7) % 1000;
    recorder.record(step);
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_SpanDisabled(benchmark::State& state) {
  const obs::Telemetry telemetry;  // null: Span must not read the clock
  for (auto _ : state) {
    const obs::Span span(telemetry, "bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Registry registry;
  const obs::Telemetry telemetry{.registry = &registry};
  for (auto _ : state) {
    const obs::Span span(telemetry, "bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanEnabled);

// ----------------------------------------------------------- publish cost

/// A registry shaped like the one perfbench's daemon_churn publishes: 33
/// counters, 6 gauges and 3 histograms (one 33-bucket occupancy, two
/// 17-bucket step histograms), sampled into a full 256-slot timeline with
/// three burn budgets, 300 samples in so the ring has wrapped.
struct DaemonShapedObs {
  obs::Registry registry;
  obs::Timeline timeline{config()};

  static obs::TimelineConfig config() {
    obs::TimelineConfig c;
    c.slot_steps = 1000;
    c.capacity = 256;
    c.budgets = {
        obs::BurnBudget{.name = "stall", .bad = {"c.01"}, .total = {"c.00"}},
        obs::BurnBudget{.name = "deadline_miss",
                        .bad = {"c.02"},
                        .total = {"c.00", "c.02"}},
        obs::BurnBudget{
            .name = "shed", .bad = {"c.03", "c.04"}, .total = {"c.05"}}};
    return c;
  }

  DaemonShapedObs() {
    std::vector<obs::Counter*> counters;
    for (int i = 0; i < 33; ++i) {
      counters.push_back(&registry.counter(
          std::string(i < 10 ? "c.0" : "c.") + std::to_string(i)));
    }
    std::vector<obs::Gauge*> gauges;
    for (int i = 0; i < 6; ++i) {
      gauges.push_back(&registry.gauge("g." + std::to_string(i)));
    }
    obs::Histogram& occupancy = registry.histogram(
        "h.occupancy", obs::HistogramSpec::exponential(1, 32));
    obs::Histogram& slack =
        registry.histogram("h.slack", obs::HistogramSpec::exponential(1, 16));
    obs::Histogram& lateness = registry.histogram(
        "h.lateness", obs::HistogramSpec::exponential(1, 16));
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x](std::int64_t bound) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<std::int64_t>(x % static_cast<std::uint64_t>(bound));
    };
    for (std::int64_t slot = 1; slot <= 300; ++slot) {
      for (obs::Counter* c : counters) c->add(next(300000));
      for (obs::Gauge* g : gauges) g->update(next(5000));
      for (int i = 0; i < 64; ++i) {
        occupancy.record(next(2000), next(50) + 1);
        slack.record(next(8), next(500) + 1);
        lateness.record(next(64), next(20));
      }
      timeline.sample(slot * 1000, registry);
    }
  }
};

const DaemonShapedObs& daemon_shaped_obs() {
  static const DaemonShapedObs shaped;
  return shaped;
}

void BM_TimelineDump(benchmark::State& state) {
  const obs::Timeline& timeline = daemon_shaped_obs().timeline;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = timeline.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TimelineDump)->Unit(benchmark::kMicrosecond);

void BM_JsonDump(benchmark::State& state) {
  const DaemonShapedObs& shaped = daemon_shaped_obs();
  obs::Json doc = obs::Json::object();
  doc["schema"] = "rtsmooth-soak-v1";
  doc["series"] = obs::Json::parse(shaped.timeline.dump());
  doc["registry"] = shaped.registry.to_json(false);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = doc.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonDump)->Unit(benchmark::kMicrosecond);

}  // namespace

RTSMOOTH_BENCHMARK_MAIN()

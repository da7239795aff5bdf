// Microbenchmarks (google-benchmark): off-line solver scaling — the
// polymatroid greedy on byte-slice clips and the Pareto DP on whole-frame
// clips, across clip lengths. The largest greedy size, 10000 frames, is
// perfbench sweep_dense's clip length. The greedy has one path per input
// shape (offline/unit_optimal.h): BM_UnitOptimal's three frame-type values
// take the per-class passes, and BM_UnitOptimalDependency's per-frame
// dependency-aware values (as abl_dependency builds them) walk the tree.

#include <benchmark/benchmark.h>

#include <set>

#include "microbench_main.h"

#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "sim/sweep.h"
#include "trace/dependency.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace {

using namespace rtsmooth;

Stream make_stream(trace::Slicing slicing, std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(), slicing);
}

/// Times unit_optimal on `s` and reports its distinct byte values beside
/// the most that take the per-class passes.
void time_unit_optimal(benchmark::State& state, const Stream& s) {
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Bytes buffer = 2 * s.max_frame_bytes();
  for (auto _ : state) {
    const auto result = offline::unit_optimal(s, buffer, rate);
    benchmark::DoNotOptimize(result.benefit);
  }
  std::set<double> values;
  for (const SliceRun& run : s.runs()) values.insert(run.byte_value());
  state.counters["values"] =
      benchmark::Counter(static_cast<double>(values.size()));
  state.counters["class_limit"] = benchmark::Counter(static_cast<double>(
      offline::class_pass_limit(s.run_count(), s.horizon())));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_UnitOptimal(benchmark::State& state) {
  time_unit_optimal(state,
                    make_stream(trace::Slicing::ByteSlices,
                                static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_UnitOptimal)->Arg(250)->Arg(1000)->Arg(4000)->Arg(10000);

void BM_UnitOptimalDependency(benchmark::State& state) {
  const trace::FrameSequence clip = trace::stock_clip(
      "cnn-news", static_cast<std::size_t>(state.range(0)));
  time_unit_optimal(state, trace::slice_frames_with_values(
                               clip, trace::dependency_aware_values(clip),
                               trace::Slicing::ByteSlices));
}
BENCHMARK(BM_UnitOptimalDependency)->Arg(1000)->Arg(10000);

void BM_ParetoDp(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const Stream s = make_stream(trace::Slicing::WholeFrame, frames);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Bytes buffer = 2 * s.max_frame_bytes();
  std::size_t peak = 0;
  for (auto _ : state) {
    const auto result = offline::pareto_dp_optimal(s, buffer, rate);
    benchmark::DoNotOptimize(result.benefit);
    peak = std::max(peak, result.peak_states);
  }
  state.counters["peak_states"] =
      benchmark::Counter(static_cast<double>(peak));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_ParetoDp)->Arg(100)->Arg(250)->Arg(500);

}  // namespace

RTSMOOTH_BENCHMARK_MAIN()

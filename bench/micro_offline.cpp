// Microbenchmarks (google-benchmark): off-line solver scaling — the
// polymatroid greedy's O(n log n + n log T) on byte-slice clips and the
// Pareto DP on whole-frame clips, across clip lengths. The largest greedy
// size, 10000 frames, is perfbench sweep_dense's clip length.

#include <benchmark/benchmark.h>

#include "microbench_main.h"

#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace {

using namespace rtsmooth;

Stream make_stream(trace::Slicing slicing, std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(), slicing);
}

void BM_UnitOptimal(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const Stream s = make_stream(trace::Slicing::ByteSlices, frames);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Bytes buffer = 2 * s.max_frame_bytes();
  for (auto _ : state) {
    const auto result = offline::unit_optimal(s, buffer, rate);
    benchmark::DoNotOptimize(result.benefit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_UnitOptimal)->Arg(250)->Arg(1000)->Arg(4000)->Arg(10000);

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

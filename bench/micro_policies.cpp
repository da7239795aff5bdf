// Microbenchmarks (google-benchmark): server-buffer operations and
// per-policy shed cost, plus one end-to-end simulation throughput figure.
// Not a paper artifact — tracks the implementation's hot paths.

#include <benchmark/benchmark.h>

#include "microbench_main.h"

#include "core/server_buffer.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
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

void BM_BufferPushSend(benchmark::State& state) {
  const Stream& s = clip_stream();
  const auto runs = s.runs();
  std::vector<SentPiece> pieces;
  for (auto _ : state) {
    ServerBuffer buf;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      buf.push(runs[i], i, runs[i].count);
      pieces.clear();
      buf.send(runs[i].total_bytes(), pieces);
      benchmark::DoNotOptimize(pieces.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_BufferPushSend);

void BM_PolicyShed(benchmark::State& state, const char* policy_name) {
  const Stream& s = clip_stream();
  const auto runs = s.runs();
  auto policy = make_policy(policy_name);
  Bytes total = 0;
  for (const auto& run : runs) total += run.total_bytes();
  for (auto _ : state) {
    state.PauseTiming();
    ServerBuffer buf;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      buf.push(runs[i], i, runs[i].count);
    }
    state.ResumeTiming();
    policy->shed(buf, total / 2);  // shed half the clip in one call
    benchmark::DoNotOptimize(buf.occupancy());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (total - total / 2));
}
BENCHMARK_CAPTURE(BM_PolicyShed, tail_drop, "tail-drop");
BENCHMARK_CAPTURE(BM_PolicyShed, greedy, "greedy");
BENCHMARK_CAPTURE(BM_PolicyShed, head_drop, "head-drop");
BENCHMARK_CAPTURE(BM_PolicyShed, random, "random");

void BM_Simulate(benchmark::State& state, const char* policy_name) {
  const Stream& s = clip_stream();
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, plan, policy_name);
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK_CAPTURE(BM_Simulate, tail_drop, "tail-drop");
BENCHMARK_CAPTURE(BM_Simulate, greedy, "greedy");

// The reference clip re-timed into five-frame bursts separated by long
// quiescent gaps — the regime span skipping exists for. The plan keeps the
// dense clip's rate so each burst drains quickly and the gaps stay
// quiescent across ~160k slots.
const Stream& sparse_burst_stream() {
  static const Stream s = [] {
    const Stream& base = clip_stream();
    std::vector<SliceRun> runs(base.runs().begin(), base.runs().end());
    Time arrival = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) arrival += (i % 5 == 0) ? 2000 : 1;
      runs[i].arrival = arrival;
    }
    return Stream::from_runs(std::move(runs));
  }();
  return s;
}

void BM_SimulateSparseBurst(benchmark::State& state) {
  const Stream& s = sparse_burst_stream();
  const Bytes rate = sim::relative_rate(clip_stream(), 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, plan, "tail-drop");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateSparseBurst);

}  // namespace

RTSMOOTH_BENCHMARK_MAIN()

// Ablation — value models vs actual decodability (paper Sect. 2.1 remarks
// that fidelity "does not degrade linearly with the quantity of lost data";
// Sect. 5 approximates it with static 12:8:1 weights). This bench scores
// schedules by MPEG *decodable frames* and compares three value models
// driving the Greedy policy:
//   throughput      every byte worth 1 (weight-blind),
//   mpeg-12-8-1     the paper's static weighting,
//   dependency      per-frame fan-out pricing (trace/dependency.h).
// Plus Tail-Drop as the policy baseline.

#include <iostream>

#include "bench_common.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/dependency.h"

namespace {

using namespace rtsmooth;

struct Scored {
  double decodable = 0.0;
  double goodput = 0.0;
  double weighted_loss = 0.0;
};

Scored score(const trace::FrameSequence& frames, const Stream& stream,
             const Plan& plan, const char* policy, obs::Telemetry telemetry) {
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  config.telemetry = telemetry;
  sim::SmoothingSimulator simulator(stream, config, make_policy(policy));
  ScheduleRecorder rec(stream.run_count());
  const SimReport report = simulator.run(&rec);
  const auto dep = trace::analyze_decodability(
      frames, trace::delivered_bytes_per_frame(stream, rec, frames.size()));
  return Scored{.decodable = dep.decodable_fraction(),
                .goodput = dep.goodput_fraction(),
                .weighted_loss = report.weighted_loss()};
}

int run(const bench::BenchOptions& opts) {
  const std::size_t frames_n =
      opts.frames ? opts.frames : (opts.quick ? 300 : 1500);
  const trace::FrameSequence frames =
      trace::stock_clip("cnn-news", frames_n);
  const Stream throughput = trace::slice_frames(
      frames, trace::ValueModel::throughput(), trace::Slicing::ByteSlices);
  const Stream mpeg = trace::slice_frames(
      frames, trace::ValueModel::mpeg_default(), trace::Slicing::ByteSlices);
  const Stream aware = trace::slice_frames_with_values(
      frames, trace::dependency_aware_values(frames),
      trace::Slicing::ByteSlices);

  std::cout << "abl_dependency — decodable-frame fraction by value model "
               "(buffer = 2 x max frame)\n"
            << "clip: cnn-news, " << frames_n << " frames\n\n";
  bench::Series series{.header = {"rate(xAvg)", "policy+values",
                                  "decodableFrames", "goodputBytes"}};
  struct Variant {
    const char* label;
    const Stream* stream;
    const char* policy;
  };
  const Variant variants[] = {
      {"tail-drop", &mpeg, "tail-drop"},
      {"greedy/throughput", &throughput, "greedy"},
      {"greedy/mpeg-12-8-1", &mpeg, "greedy"},
      {"greedy/dependency", &aware, "greedy"},
  };
  constexpr std::size_t kVariantCount = std::size(variants);
  const std::vector<double> rels = {0.7, 0.8, 0.9, 1.0};
  sim::RunStats stats;
  bench::JsonReport json("abl_dependency", opts);
  obs::Registry reg;
  sim::CellTelemetry telemetry(json.enabled() ? &reg : nullptr, nullptr,
                               rels.size() * kVariantCount);
  sim::ParallelRunner runner(opts.threads);
  const auto scores = runner.map<Scored>(
      rels.size() * kVariantCount,
      [&](std::size_t i) {
        const Variant& v = variants[i % kVariantCount];
        const Bytes rate = sim::relative_rate(mpeg, rels[i / kVariantCount]);
        const Plan plan =
            Planner::from_buffer_rate(2 * mpeg.max_frame_bytes(), rate);
        return score(frames, *v.stream, plan, v.policy, telemetry.at(i));
      },
      &stats);
  telemetry.fold();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    series.add({Table::num(rels[i / kVariantCount], 1),
                variants[i % kVariantCount].label,
                Table::pct(scores[i].decodable),
                Table::pct(scores[i].goodput)});
  }
  series.emit(opts);
  json.add_series("value_models", series);
  json.write(stats, reg);
  bench::print_run_stats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(rtsmooth::bench::parse_options(argc, argv));
}

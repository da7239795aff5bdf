// Ablation — "pro-active" overflow avoidance (the paper's closing open
// problem, Sect. 6): does early-dropping cheap data before the buffer fills
// ever beat plain Greedy (which only drops on overflow)?
//
// Sweeps the proactive watermark/value-floor grid against Greedy and
// Tail-Drop on the reference clip at rates below the average. The expected
// outcome (and the reason the paper calls it an open problem) is nuanced:
// early drops cannot improve *unit-slice* benefit (Theorem 3.5 says overflow
// handling is already byte-optimal, so early drops only throw away bytes the
// buffer could still have sold), but they change *which* bytes survive.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "policies/proactive_threshold.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace {

using namespace rtsmooth;

int run(const bench::BenchOptions& opts) {
  const std::size_t frames =
      opts.frames ? opts.frames : (opts.quick ? 300 : 1200);
  const Stream s =
      bench::reference_stream(trace::Slicing::ByteSlices, frames);
  std::cout << "abl_proactive — proactive early-drop vs Greedy/Tail-Drop "
               "(byte slices, buffer = 2 x max frame)\n"
            << "clip: cnn-news, " << frames << " frames\n\n";
  bench::Series series{.header = {"rate(xAvg)", "policy", "watermark",
                                  "valueFloor", "weightedLoss", "byteLoss"}};
  // Flatten the (rate x policy-variant) grid into independent cells so the
  // whole table runs as one parallel batch in row order.
  struct Cell {
    double rel = 0.0;
    const char* base = nullptr;  // nullptr means proactive
    double watermark = 0.0;
    double floor = 0.0;
  };
  std::vector<Cell> cells;
  for (double rel : {0.8, 0.9, 1.0}) {
    for (const char* base : {"tail-drop", "greedy"}) {
      cells.push_back(Cell{.rel = rel, .base = base});
    }
    for (double watermark : {0.5, 0.75, 0.9}) {
      for (double floor : {1.0, 8.0}) {
        cells.push_back(Cell{.rel = rel, .watermark = watermark,
                             .floor = floor});
      }
    }
  }
  sim::RunStats stats;
  bench::JsonReport json("abl_proactive", opts);
  obs::Registry reg;
  sim::CellTelemetry telemetry(json.enabled() ? &reg : nullptr, nullptr,
                               cells.size());
  sim::ParallelRunner runner(opts.threads);
  const auto reports = runner.map<SimReport>(
      cells.size(),
      [&](std::size_t i) {
        const Bytes rate = sim::relative_rate(s, cells[i].rel);
        const Plan plan =
            Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
        if (cells[i].base != nullptr) {
          return sim::simulate(s, plan, cells[i].base, 1, telemetry.at(i));
        }
        sim::SimConfig config = sim::SimConfig::balanced(plan);
        config.telemetry = telemetry.at(i);
        sim::SmoothingSimulator simulator(
            s, config,
            std::make_unique<ProactiveThresholdPolicy>(ProactiveConfig{
                .watermark = cells[i].watermark,
                .value_floor = cells[i].floor}));
        return simulator.run();
      },
      &stats);
  telemetry.fold();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    series.add({Table::num(cells[i].rel, 1),
                cells[i].base != nullptr ? cells[i].base : "proactive",
                cells[i].base != nullptr ? "-" : Table::num(cells[i].watermark,
                                                            2),
                cells[i].base != nullptr ? "-" : Table::num(cells[i].floor, 1),
                Table::pct(reports[i].weighted_loss()),
                Table::pct(reports[i].byte_loss())});
  }
  series.emit(opts);
  json.add_series("proactive_grid", series);
  json.write(stats, reg);
  bench::print_run_stats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(rtsmooth::bench::parse_options(argc, argv));
}

// Ablation — positive link jitter (the paper's Sect. 6 open problem):
// quantifies (i) how much data an uncompensated jittery link loses at the
// client and (ii) that budgeting delay +J and client space +J*R restores
// lossless reconstruction, making the remark "a jitter control algorithm
// adds to the buffer space requirement and to overall delay" concrete.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/link.h"
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
  const Bytes rate = sim::relative_rate(s, 1.0);
  const Plan plan = Planner::from_buffer_rate(4 * s.max_frame_bytes(), rate);
  const Time p = 2;

  std::cout << "abl_jitter — bounded link jitter J vs client compensation "
               "(buffer = 4 x max frame, R = average rate, P = " << p
            << ")\n" << "clip: cnn-news, " << frames << " frames\n\n";
  bench::Series series{.header = {"J", "compensated", "lateLoss(bytes)",
                                  "clientOverflow(bytes)", "weightedLoss"}};
  struct Cell {
    Time j = 0;
    bool compensated = false;
  };
  std::vector<Cell> cells;
  for (Time j : {0, 2, 4, 8, 16}) {
    for (bool compensated : {false, true}) {
      cells.push_back(Cell{.j = j, .compensated = compensated});
    }
  }
  sim::RunStats stats;
  bench::JsonReport json("abl_jitter", opts);
  obs::Registry reg;
  sim::CellTelemetry telemetry(json.enabled() ? &reg : nullptr, nullptr,
                               cells.size());
  sim::ParallelRunner runner(opts.threads);
  const auto reports = runner.map<SimReport>(
      cells.size(),
      [&](std::size_t i) {
        sim::SimConfig config = sim::SimConfig::balanced(plan, p);
        if (cells[i].compensated) {
          config.smoothing_delay += cells[i].j;
          config.client_buffer += cells[i].j * plan.rate;
        }
        config.telemetry = telemetry.at(i);
        return sim::simulate(
            s, config, "greedy",
            std::make_unique<BoundedJitterLink>(p, cells[i].j, Rng(1234)));
      },
      &stats);
  telemetry.fold();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    series.add({std::to_string(cells[i].j), cells[i].compensated ? "yes" : "no",
                std::to_string(reports[i].dropped_client_late.bytes),
                std::to_string(reports[i].dropped_client_overflow.bytes),
                Table::pct(reports[i].weighted_loss())});
  }
  series.emit(opts);
  json.add_series("jitter_grid", series);
  json.write(stats, reg);
  bench::print_run_stats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(rtsmooth::bench::parse_options(argc, argv));
}

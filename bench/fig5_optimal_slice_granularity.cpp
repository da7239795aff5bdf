// Figure 5 (paper Sect. 5.3): the OPTIMAL weighted loss as a function of
// buffer size, for single-byte slices versus whole-frame slices, at the
// average link rate. "The difference ... may be as high as nearly a factor
// of 4 when the buffer is very small, but it shrinks when the buffer size
// increases."
//
// Byte-slice optimum: polymatroid greedy (exact). Whole-frame optimum:
// bracketed by the quantized Pareto DP (offline::quantized_optimal_bracket),
// printed as the provable [lo, hi] loss pair.

#include <iostream>

#include "bench_common.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "sim/sweep.h"

namespace {

using namespace rtsmooth;

int run(const bench::BenchOptions& opts) {
  const std::size_t frames =
      opts.frames ? opts.frames : (opts.quick ? 300 : 1200);
  const Stream bytes_stream =
      bench::reference_stream(trace::Slicing::ByteSlices, frames);
  const Stream frame_stream =
      bench::reference_stream(trace::Slicing::WholeFrame, frames);
  const Bytes rate = sim::relative_rate(bytes_stream, 1.00);

  std::cout << "Fig. 5 — OPTIMAL weighted loss vs buffer size, byte slices "
               "vs whole-frame slices, R = average rate\n"
            << "clip: cnn-news, " << frames
            << " frames; whole-frame optimum bracketed by the quantized DP "
               "(see offline/pareto_dp.h)\n\n";
  bench::Series series{.header = {"buffer(xMaxFrame)", "OptByteSlices",
                                  "OptWholeFrame[lo", "hi]", "lossRatio"}};
  std::vector<int> multiples;
  for (int m = 1; m <= 26; m += opts.quick ? 5 : 1) multiples.push_back(m);

  // Both optima of one sweep point are independent solver calls on
  // read-only streams; fan every (point, solver) pair out over the runner.
  struct Row {
    double byte_loss = 0.0;
    double frame_loss_lo = 0.0;
    double frame_loss_hi = 0.0;
  };
  const Weight total = bytes_stream.total_weight();
  sim::ParallelRunner runner(opts.threads);
  sim::RunStats stats;
  const auto rows = runner.map<Row>(
      multiples.size(),
      [&](std::size_t i) {
        const Bytes buffer = multiples[i] * bytes_stream.max_frame_bytes();
        const Plan plan = Planner::from_buffer_rate(buffer, rate);
        Row row;
        const auto byte_opt =
            offline::unit_optimal(bytes_stream, plan.buffer, plan.rate);
        row.byte_loss = 1.0 - byte_opt.benefit / total;
        // Quantized bracket: optimistic benefit -> lower loss bound, and
        // vice versa. The quantum scales with the buffer so each DP stays
        // around 8k occupancy states regardless of the sweep point.
        const Bytes quantum = std::max<Bytes>(256, plan.buffer / 8192);
        const auto bracket = offline::quantized_optimal_bracket(
            frame_stream, plan.buffer, plan.rate, quantum);
        row.frame_loss_lo = 1.0 - bracket.upper / total;
        row.frame_loss_hi = 1.0 - bracket.lower / total;
        return row;
      },
      &stats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double mid = (row.frame_loss_lo + row.frame_loss_hi) / 2.0;
    const double ratio = row.byte_loss > 1e-12 ? mid / row.byte_loss : 1.0;
    series.add({Table::num(multiples[i], 0), Table::pct(row.byte_loss),
                Table::pct(row.frame_loss_lo), Table::pct(row.frame_loss_hi),
                Table::num(ratio, 2)});
  }
  series.emit(opts);
  // Offline solvers only — no simulator runs, so the registry stays empty.
  bench::JsonReport json("fig5_optimal_slice_granularity", opts);
  json.add_series("optimal_loss_vs_buffer", series);
  json.write(stats, obs::Registry{});
  bench::print_run_stats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(rtsmooth::bench::parse_options(argc, argv));
}

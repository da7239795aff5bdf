// Theory table 1 — the B = D*R tradeoff (Sect. 3):
//   (a) Theorem 3.5 check: on the byte-slice clip, the generic algorithm's
//       throughput equals the off-line optimum exactly, for every drop
//       policy, across a (B, R) grid;
//   (b) Sect. 3.3 grid: fixing R and the ideal delay D* = B/R, sweeping the
//       actual delay shows loss above the minimum when D < B/R (underflow)
//       and no gain when D > B/R;
//   (c) Theorem 3.9 check: whole-frame slices stay within the
//       (B - Lmax + 1)/B guarantee of the DP optimum;
//   (d) Lemma 3.6 tight stream: measured throughput ratio between buffer
//       sizes meets the B1/B2 bound with near-equality.

#include <iostream>

#include "analysis/adversarial.h"
#include "bench_common.h"
#include "core/planner.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace {

using namespace rtsmooth;

void part_a_theorem35(const bench::BenchOptions& opts, std::size_t frames,
                      sim::RunStats* stats, bench::JsonReport* json,
                      obs::Registry* reg) {
  const Stream s = trace::slice_frames(trace::stock_clip("cnn-news", frames),
                                       trace::ValueModel::throughput(),
                                       trace::Slicing::ByteSlices);
  std::cout << "(a) Theorem 3.5 — generic throughput == off-line optimum "
               "(byte slices, every policy)\n\n";
  bench::Series series{.header = {"R(xAvg)", "B(xMaxFrame)", "policy",
                                  "generic(bytes)", "optimal(bytes)",
                                  "equal"}};
  struct Cell {
    double rel;
    int mult;
  };
  const std::vector<Cell> cells = {{0.8, 1}, {0.8, 4}, {1.0, 1}, {1.0, 4}};
  constexpr const char* kPolicies[] = {"tail-drop", "greedy", "random"};
  struct Row {
    Bytes optimal = 0;
    Bytes played[3] = {0, 0, 0};
  };
  sim::ParallelRunner runner(opts.threads);
  sim::CellTelemetry telemetry(reg, nullptr, cells.size());
  const auto rows = runner.map<Row>(
      cells.size(),
      [&](std::size_t i) {
        const Bytes rate = sim::relative_rate(s, cells[i].rel);
        const Plan plan = Planner::from_buffer_rate(
            cells[i].mult * s.max_frame_bytes(), rate);
        Row row;
        row.optimal =
            offline::unit_optimal(s, plan.buffer, plan.rate).accepted_bytes;
        for (std::size_t p = 0; p < 3; ++p) {
          row.played[p] =
              sim::simulate(s, plan, kPolicies[p], 1, telemetry.at(i))
                  .played.bytes;
        }
        return row;
      },
      stats);
  telemetry.fold();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t p = 0; p < 3; ++p) {
      series.add({Table::num(cells[i].rel, 1), Table::num(cells[i].mult, 0),
                  kPolicies[p], std::to_string(rows[i].played[p]),
                  std::to_string(rows[i].optimal),
                  rows[i].played[p] == rows[i].optimal ? "yes" : "NO"});
    }
  }
  series.emit(opts);
  if (json != nullptr) json->add_series("theorem35", series);
}

void part_b_delay_grid(std::size_t frames, unsigned threads,
                       sim::RunStats* stats, bench::JsonReport* json,
                       obs::Registry* reg) {
  const Stream s = trace::slice_frames(trace::stock_clip("cnn-news", frames),
                                       trace::ValueModel::throughput(),
                                       trace::Slicing::ByteSlices);
  const Bytes rate = sim::relative_rate(s, 1.0);
  const Bytes buffer = 4 * s.max_frame_bytes();
  const Plan ideal = Planner::from_buffer_rate(buffer, rate);
  std::cout << "\n(b) Sect. 3.3 — loss vs smoothing delay around the ideal "
               "D* = B/R = "
            << ideal.delay << " (B fixed, client buffer = B)\n\n";
  bench::Series series{
      .header = {"D(steps)", "served(bytes)", "late(bytes)",
                 "clientOverflow(bytes)", "byteLoss"}};
  const std::vector<Time> delays = {ideal.delay / 4, ideal.delay / 2,
                                    ideal.delay, ideal.delay * 2};
  sim::ParallelRunner runner(threads);
  sim::CellTelemetry telemetry(reg, nullptr, delays.size());
  const auto reports = runner.map<SimReport>(
      delays.size(),
      [&](std::size_t i) {
        sim::SimConfig config{
            .server_buffer = ideal.buffer,
            .client_buffer = ideal.buffer,
            .rate = ideal.rate,
            .smoothing_delay = std::max<Time>(1, delays[i]),
            .link_delay = 1};
        config.telemetry = telemetry.at(i);
        return sim::simulate(s, config, "tail-drop");
      },
      stats);
  telemetry.fold();
  for (std::size_t i = 0; i < delays.size(); ++i) {
    series.add({std::to_string(std::max<Time>(1, delays[i])),
                std::to_string(reports[i].played.bytes),
                std::to_string(reports[i].dropped_client_late.bytes),
                std::to_string(reports[i].dropped_client_overflow.bytes),
                Table::pct(reports[i].byte_loss())});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("delay_grid", series);
}

void part_c_theorem39(std::size_t frames, unsigned threads,
                      sim::RunStats* stats, bench::JsonReport* json,
                      obs::Registry* reg) {
  const Stream s = trace::slice_frames(trace::stock_clip("cnn-news", frames),
                                       trace::ValueModel::throughput(),
                                       trace::Slicing::WholeFrame);
  std::cout << "\n(c) Theorem 3.9 — whole-frame throughput vs the "
               "(B-Lmax+1)/B guarantee\n\n";
  bench::Series series{.header = {"B(xMaxFrame)", "generic(bytes)",
                                  "optimal(bytes)", "measuredRatio",
                                  "guarantee"}};
  const Bytes rate = sim::relative_rate(s, 0.9);
  const std::vector<int> mults = {1, 2, 4, 8};
  struct Row {
    Plan plan;
    Bytes played = 0;
    double optimal_upper = 0.0;
  };
  sim::ParallelRunner runner(threads);
  sim::CellTelemetry telemetry(reg, nullptr, mults.size());
  const auto rows = runner.map<Row>(
      mults.size(),
      [&](std::size_t i) {
        const Bytes buffer = mults[i] * s.max_frame_bytes();
        // Round the delay up so B = D*R stays >= Lmax (whole-frame slices).
        const Plan plan =
            Planner::from_delay_rate((buffer + rate - 1) / rate, rate);
        // Conservative comparison point: the quantized bracket's *upper*
        // bound on the optimum (a smaller measured ratio than against the
        // exact optimum, so the guarantee check only gets harder).
        const auto optimal = offline::quantized_optimal_bracket(
            s, plan.buffer, plan.rate,
            std::max<Bytes>(256, plan.buffer / 8192));
        return Row{
            .plan = plan,
            .played = sim::simulate(s, plan, "tail-drop", 1, telemetry.at(i))
                          .played.bytes,
            .optimal_upper = optimal.upper};
      },
      stats);
  telemetry.fold();
  for (std::size_t i = 0; i < mults.size(); ++i) {
    const double measured =
        static_cast<double>(rows[i].played) / rows[i].optimal_upper;
    series.add({Table::num(mults[i], 0), std::to_string(rows[i].played),
                Table::num(rows[i].optimal_upper, 0),
                Table::num(measured, 4),
                Table::num(Planner::throughput_guarantee(
                               rows[i].plan.buffer, s.max_slice_size()),
                           4)});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("theorem39", series);
}

void part_d_lemma36(unsigned threads, sim::RunStats* stats,
                    bench::JsonReport* json, obs::Registry* reg) {
  const Bytes b2 = 64;
  const Stream s = analysis::lemma36_stream(b2, /*batches=*/50);
  std::cout << "\n(d) Lemma 3.6 — tight batch stream (batch = " << b2
            << "): throughput(B1)/throughput(B2) vs bound B1/B2\n\n";
  bench::Series series{.header = {"B1", "B2", "measuredRatio", "bound"}};
  const std::vector<Bytes> buffers = {8, 16, 32, 64, b2};
  sim::ParallelRunner runner(threads);
  sim::CellTelemetry telemetry(reg, nullptr, buffers.size());
  const auto throughputs = runner.map<Bytes>(
      buffers.size(),
      [&](std::size_t i) {
        const Plan plan = Planner::from_buffer_rate(buffers[i], 1);
        return sim::simulate(s, plan, "tail-drop", 1, telemetry.at(i))
            .played.bytes;
      },
      stats);
  telemetry.fold();
  const Bytes big_throughput = throughputs.back();
  for (std::size_t i = 0; i + 1 < buffers.size(); ++i) {
    series.add({std::to_string(buffers[i]), std::to_string(b2),
                Table::num(static_cast<double>(throughputs[i]) /
                               static_cast<double>(big_throughput),
                           4),
                Table::num(Planner::buffer_ratio_guarantee(buffers[i], b2),
                           4)});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("lemma36", series);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rtsmooth::bench::parse_options(argc, argv);
  const std::size_t frames = opts.frames ? opts.frames : (opts.quick ? 200 : 800);
  std::cout << "tab_tradeoff — Sect. 3 results on the cnn-news clip ("
            << frames << " frames)\n\n";
  rtsmooth::sim::RunStats stats;
  rtsmooth::bench::JsonReport json("tab_tradeoff", opts);
  rtsmooth::obs::Registry reg;
  auto* json_ptr = json.enabled() ? &json : nullptr;
  auto* reg_ptr = json.enabled() ? &reg : nullptr;
  part_a_theorem35(opts, frames, &stats, json_ptr, reg_ptr);
  part_b_delay_grid(frames, opts.threads, &stats, json_ptr, reg_ptr);
  part_c_theorem39(std::min<std::size_t>(frames, 400), opts.threads, &stats,
                   json_ptr, reg_ptr);
  part_d_lemma36(opts.threads, &stats, json_ptr, reg_ptr);
  json.write(stats, reg);
  rtsmooth::bench::print_run_stats(stats);
  return 0;
}

// Theory table 3 — the lossless-smoothing context (paper Sect. 1 and
// related work): quantifies the introduction's motivating claim that "one
// can significantly reduce the peak bandwidth using only a relatively
// modest amount of space without unbearable delay", and positions the
// paper's lossy model against the lossless alternatives it cites.
//
//  (a) peak-rate reduction grid: taut-string optimal peak rate vs
//      (startup delay, client buffer) — Salehi et al. [16];
//  (b) on-line window convergence — Rexford et al. [14];
//  (c) optimal initial delay knee — Zhao et al. [23];
//  (d) lossless vs lossy: the rate lossless needs, vs Greedy's weighted
//      loss when the link is provisioned below it — the tradeoff the lossy
//      model exists to exploit.

#include <iostream>

#include "bench_common.h"
#include "lossless/delay_optimizer.h"
#include "lossless/online_window.h"
#include "lossless/taut_string.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace {

using namespace rtsmooth;
using lossless::CumulativeCurve;
using lossless::live_walls;
using lossless::taut_string;

void part_a_grid(const CumulativeCurve& arrivals,
                 const bench::BenchOptions& opts, sim::RunStats* stats,
                 bench::JsonReport* json) {
  std::cout << "(a) lossless peak rate (KB/slot) vs startup delay and "
               "client buffer; unsmoothed peak = "
            << Table::num(static_cast<double>(arrivals.peak_increment()) /
                              1024.0, 1)
            << " KB, average = "
            << Table::num(static_cast<double>(arrivals.total()) /
                              static_cast<double>(arrivals.length()) / 1024.0,
                          1)
            << " KB\n\n";
  bench::Series series{.header = {"buffer", "D=1", "D=5", "D=25", "D=125"}};
  const std::vector<Bytes> buffers_kb = {120, 480, 1920, 7680};
  constexpr Time kDelays[] = {1, 5, 25, 125};
  constexpr std::size_t kDelayCount = std::size(kDelays);
  sim::ParallelRunner runner(opts.threads);
  const auto peaks = runner.map<double>(
      buffers_kb.size() * kDelayCount,
      [&](std::size_t i) {
        return lossless::min_peak_for_delay(
            arrivals, kDelays[i % kDelayCount],
            buffers_kb[i / kDelayCount] * 1024);
      },
      stats);
  for (std::size_t b = 0; b < buffers_kb.size(); ++b) {
    std::vector<std::string> row = {std::to_string(buffers_kb[b]) + "KB"};
    for (std::size_t d = 0; d < kDelayCount; ++d) {
      row.push_back(Table::num(peaks[b * kDelayCount + d] / 1024.0, 1));
    }
    series.add(std::move(row));
  }
  series.emit(opts);
  if (json != nullptr) json->add_series("peak_rate_grid", series);
}

void part_b_online(const CumulativeCurve& arrivals, unsigned threads,
                   sim::RunStats* stats, bench::JsonReport* json) {
  const lossless::SmoothingWalls walls = live_walls(arrivals, 25, 2 << 20);
  const double offline = taut_string(walls.lower, walls.upper).peak_rate;
  std::cout << "\n(b) on-line window convergence (delay 25, buffer 2 MB): "
               "peak rate vs lookahead window\n\n";
  bench::Series series{
      .header = {"window", "peak(drain)", "peak(prefetch)", "xOffline"}};
  const std::vector<Time> windows = {Time{5},   Time{15},  Time{50},
                                     Time{150}, Time{500}, arrivals.length() +
                                                               25};
  struct Row {
    double drain = 0.0;
    double prefetch = 0.0;
  };
  sim::ParallelRunner runner(threads);
  const auto rows = runner.map<Row>(
      windows.size(),
      [&](std::size_t i) {
        return Row{.drain = lossless::online_smooth(
                                walls, windows[i],
                                lossless::BlockAnchor::Drain)
                                .peak_rate,
                   .prefetch = lossless::online_smooth(
                                   walls, windows[i],
                                   lossless::BlockAnchor::Prefetch)
                                   .peak_rate};
      },
      stats);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    series.add(
        {std::to_string(windows[i]), Table::num(rows[i].drain / 1024.0, 1),
         Table::num(rows[i].prefetch / 1024.0, 1),
         Table::num(std::min(rows[i].drain, rows[i].prefetch) / offline, 3)});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("online_window", series);
  std::cout << "    offline optimum: " << Table::num(offline / 1024.0, 1)
            << " KB/slot\n";
}

void part_c_knee(const CumulativeCurve& arrivals, unsigned threads,
                 sim::RunStats* stats, bench::JsonReport* json) {
  std::cout << "\n(c) optimal initial delay (Zhao et al.): smallest delay "
               "after which more delay buys nothing\n\n";
  bench::Series series{.header = {"buffer", "peak(D=0)", "floor", "kneeDelay"}};
  const std::vector<Bytes> buffers_kb = {120, 480, 1920};
  sim::ParallelRunner runner(threads);
  const auto knees = runner.map<lossless::DelayKnee>(
      buffers_kb.size(),
      [&](std::size_t i) {
        return lossless::optimal_initial_delay(arrivals,
                                               buffers_kb[i] * 1024);
      },
      stats);
  for (std::size_t i = 0; i < buffers_kb.size(); ++i) {
    series.add({std::to_string(buffers_kb[i]) + "KB",
                Table::num(knees[i].peak_at_zero / 1024.0, 1),
                Table::num(knees[i].peak_rate / 1024.0, 1),
                std::to_string(knees[i].delay)});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("delay_knee", series);
}

void part_d_lossy_vs_lossless(const Stream& stream,
                              const CumulativeCurve& arrivals,
                              unsigned threads, sim::RunStats* stats,
                              bench::JsonReport* json, obs::Registry* reg) {
  const Time delay = 25;
  const Bytes buffer = 2 << 20;
  const double lossless_rate =
      lossless::min_peak_for_delay(arrivals, delay, buffer);
  std::cout << "\n(d) lossless vs lossy at delay " << delay
            << ", buffer 2 MB: lossless needs "
            << Table::num(lossless_rate / 1024.0, 1)
            << " KB/slot; Greedy's weighted loss below that rate\n\n";
  bench::Series series{
      .header = {"rate(xLossless)", "rate(KB)", "greedyWeightedLoss",
                 "byteLoss"}};
  const std::vector<double> fracs = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5};
  sim::ParallelRunner runner(threads);
  sim::CellTelemetry telemetry(reg, nullptr, fracs.size());
  const auto reports = runner.map<SimReport>(
      fracs.size(),
      [&](std::size_t i) {
        const auto rate =
            std::max<Bytes>(1, static_cast<Bytes>(fracs[i] * lossless_rate));
        return sim::simulate(stream, Planner::from_delay_rate(delay, rate),
                             "greedy", 1, telemetry.at(i));
      },
      stats);
  telemetry.fold();
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    const auto rate =
        std::max<Bytes>(1, static_cast<Bytes>(fracs[i] * lossless_rate));
    series.add({Table::num(fracs[i], 1),
                Table::num(static_cast<double>(rate) / 1024.0, 1),
                Table::pct(reports[i].weighted_loss()),
                Table::pct(reports[i].byte_loss())});
  }
  series.emit(bench::BenchOptions{});
  if (json != nullptr) json->add_series("lossy_vs_lossless", series);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rtsmooth::bench::parse_options(argc, argv);
  const std::size_t frames = opts.frames ? opts.frames : (opts.quick ? 300 : 1500);
  const trace::FrameSequence sequence = trace::stock_clip("cnn-news", frames);
  const CumulativeCurve arrivals = CumulativeCurve::from_frames(sequence);
  const Stream stream = trace::slice_frames(
      sequence, trace::ValueModel::mpeg_default(), trace::Slicing::ByteSlices);
  std::cout << "tab_lossless — lossless smoothing context (" << frames
            << " frames)\n\n";
  rtsmooth::sim::RunStats stats;
  rtsmooth::bench::JsonReport json("tab_lossless", opts);
  rtsmooth::obs::Registry reg;
  auto* json_ptr = json.enabled() ? &json : nullptr;
  auto* reg_ptr = json.enabled() ? &reg : nullptr;
  part_a_grid(arrivals, opts, &stats, json_ptr);
  part_b_online(arrivals, opts.threads, &stats, json_ptr);
  part_c_knee(arrivals, opts.threads, &stats, json_ptr);
  part_d_lossy_vs_lossless(stream, arrivals, opts.threads, &stats, json_ptr,
                           reg_ptr);
  json.write(stats, reg);
  rtsmooth::bench::print_run_stats(stats);
  return 0;
}

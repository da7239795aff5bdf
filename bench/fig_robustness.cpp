// Robustness sweeps, in two halves.
//
// 1. The paper reports that its results "reflect typical values for these
//    clips" (Sect. 5). The first table re-derives the key Fig. 2/3 orderings
//    on every stock clip and on fresh seeds of the MPEG model, so a reader
//    can check the shapes aren't an artifact of the one reference clip:
//    Optimal <= Greedy <= Tail-Drop (weighted loss), at two rates and two
//    buffer sizes per clip.
//
// 2. The fault sweeps take the Sect. 6 open problems (lossy / bursty /
//    rate-varying channels) and measure weighted loss vs. fault severity —
//    i.i.d. erasure rate, Gilbert-Elliott mean burst length, and throttle
//    outage fraction — under both client degradation modes (skip vs. stall)
//    and with the NACK/retransmit recovery path off and on. Each table's
//    last column checks that loss is monotone in severity.
//
// Every cell of both halves is an independent simulation, so the whole
// bench fans out over the ParallelRunner (--threads / RTSMOOTH_THREADS).

#include <cstdint>
#include <iostream>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "faults/fault_links.h"
#include "faults/fault_schedule.h"
#include "sim/sweep.h"
#include "trace/mpeg_model.h"

namespace {

using namespace rtsmooth;

void ordering_section(const bench::BenchOptions& opts, std::size_t frames,
                      sim::RunStats* stats, bench::JsonReport* json,
                      obs::Registry* reg) {
  std::cout << "Fig. 2/3 orderings across clips and seeds (" << frames
            << " frames each)\n";
  bench::Series series{.header = {"clip", "rate(xAvg)", "B(xMaxFrame)",
                                  "TailDrop", "Greedy", "Optimal",
                                  "ordering"}};

  // Materialize the clips first (cheap, sequential), then run the full
  // (clip x rate x buffer) grid as one parallel batch of cells.
  std::vector<std::pair<std::string, Stream>> clips;
  auto add_clip = [&](const std::string& label,
                      const trace::FrameSequence& sequence) {
    clips.emplace_back(
        label, trace::slice_frames(sequence, trace::ValueModel::mpeg_default(),
                                   trace::Slicing::ByteSlices));
  };
  for (const auto& name : trace::stock_clip_names()) {
    add_clip(name, trace::stock_clip(name, frames));
  }
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    trace::MpegTraceModel model(trace::MpegModelConfig{}, seed);
    add_clip("cnn-news/seed" + std::to_string(seed), model.generate(frames));
  }

  struct Cell {
    std::size_t clip = 0;
    double rel = 0.0;
    double mult = 0.0;
  };
  std::vector<Cell> cells;
  for (std::size_t c = 0; c < clips.size(); ++c) {
    for (double rel : {0.9, 1.1}) {
      for (double mult : {2.0, 8.0}) {
        cells.push_back(Cell{.clip = c, .rel = rel, .mult = mult});
      }
    }
  }

  sim::ParallelRunner runner(opts.threads);
  sim::CellTelemetry telemetry(reg, nullptr, cells.size());
  const auto points = runner.map<sim::SweepPoint>(
      cells.size(),
      [&](std::size_t i) {
        const Stream& s = clips[cells[i].clip].second;
        // One cell per task: the inner sweep stays serial (threads = 1) and
        // records into the task's private registry.
        sim::SweepSpec spec{.axis = sim::SweepAxis::BufferMultiple,
                            .values = {cells[i].mult},
                            .policies = {"tail-drop", "greedy"},
                            .with_optimal = true,
                            .rate = sim::relative_rate(s, cells[i].rel),
                            .threads = 1};
        spec.registry = telemetry.at(i).registry;
        return sim::sweep(s, spec).points.front();
      },
      stats);
  telemetry.fold();

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& point = points[i];
    const double tail = point.policies[0].report.weighted_loss();
    const double greedy = point.policies[1].report.weighted_loss();
    const double optimal = point.optimal.weighted_loss;
    const bool ordered = optimal <= greedy + 1e-9 && greedy <= tail + 1e-9;
    series.add({clips[cells[i].clip].first, Table::num(cells[i].rel, 1),
                Table::num(cells[i].mult, 0), Table::pct(tail),
                Table::pct(greedy), Table::pct(optimal),
                ordered ? "ok" : "VIOLATED"});
  }
  series.emit(opts);
  if (json != nullptr) json->add_series("orderings", series);
}

/// Runs one fault axis under skip/stall x recovery off/on and prints
/// weighted loss per cell plus a monotonicity verdict on the no-recovery
/// columns (recovery can legitimately flatten the curve).
void fault_section(const bench::BenchOptions& opts, const Stream& s,
                   const Plan& plan, const std::string& title,
                   const char* axis, int axis_decimals,
                   std::vector<double> severities,
                   sim::FaultLinkFactory make_link, const char* csv_suffix,
                   sim::RunStats* stats, bench::JsonReport* json,
                   obs::Registry* reg) {
  std::cout << "\n" << title << "\n";
  bench::Series series{.header = {axis, "skip", "stall", "skip+rec",
                                  "stall+rec", "retx(B)", "stalls",
                                  "monotone"}};
  sim::SweepSpec spec{.axis = sim::SweepAxis::FaultSeverity,
                      .values = std::move(severities),
                      .policies = {"greedy"},
                      .plan = plan,
                      .link_factory = std::move(make_link),
                      .threads = opts.threads};
  spec.registry = reg;
  const auto plain = sim::sweep(s, spec);
  spec.recovery = RecoveryConfig{.enabled = true};
  const auto recovered = sim::sweep(s, spec);
  *stats += plain.stats;
  *stats += recovered.stats;
  double prev_skip = -1.0;
  double prev_stall = -1.0;
  for (std::size_t i = 0; i < plain.faults.size(); ++i) {
    const double skip = plain.faults[i].skip.weighted_loss();
    const double stall = plain.faults[i].stall.weighted_loss();
    const bool monotone =
        skip >= prev_skip - 1e-12 && stall >= prev_stall - 1e-12;
    series.add(
        {Table::num(spec.values[i], axis_decimals), Table::pct(skip),
         Table::pct(stall), Table::pct(recovered.faults[i].skip.weighted_loss()),
         Table::pct(recovered.faults[i].stall.weighted_loss()),
         std::to_string(recovered.faults[i].skip.retransmitted_bytes),
         std::to_string(plain.faults[i].stall.stall_steps),
         monotone ? "ok" : "VIOLATED"});
    prev_skip = skip;
    prev_stall = stall;
  }
  bench::BenchOptions section_opts = opts;
  if (opts.csv_path) section_opts.csv_path = *opts.csv_path + csv_suffix;
  series.emit(section_opts);
  // csv_suffix doubles as the series name: ".erasure.csv" -> "erasure".
  if (json != nullptr) {
    std::string name(csv_suffix);
    name = name.substr(1, name.size() - 5);
    json->add_series(name, series);
  }
}

int run(const bench::BenchOptions& opts) {
  const std::size_t frames =
      opts.frames ? opts.frames : (opts.quick ? 300 : 1000);
  std::cout << "fig_robustness — orderings across clips, then weighted loss "
               "vs. fault severity\n\n";
  sim::RunStats stats;
  bench::JsonReport json("fig_robustness", opts);
  obs::Registry reg;
  bench::JsonReport* json_ptr = json.enabled() ? &json : nullptr;
  obs::Registry* reg_ptr = json.enabled() ? &reg : nullptr;
  ordering_section(opts, frames, &stats, json_ptr, reg_ptr);

  // Whole-frame slices for the fault half: a frame then takes several steps
  // to transmit, so partial-frame underflow — the case where stall and skip
  // genuinely differ — can actually occur.
  const Stream s = bench::reference_stream(trace::Slicing::WholeFrame, frames);
  const Bytes rate = sim::relative_rate(s, 1.1);
  const Plan plan = Planner::from_buffer_rate(4 * s.max_frame_bytes(), rate);

  fault_section(
      opts, s, plan, "i.i.d. erasure: weighted loss vs. loss probability",
      "p(loss)", 2, {0.0, 0.02, 0.05, 0.1, 0.2},
      [](double severity, Time link_delay) -> std::unique_ptr<Link> {
        return std::make_unique<faults::ScheduledFaultLink>(
            link_delay,
            std::vector<faults::FaultPhase>{{.loss_probability = severity}},
            Rng(900 + static_cast<std::uint64_t>(severity * 1000)));
      },
      ".erasure.csv", &stats, json_ptr, reg_ptr);
  // Severity = mean outage length 1/p_bad_to_good; entry rate fixed, so
  // longer bursts mean a larger fraction of steps spent in outage.
  // Geometric spacing: with ~20 bursts per run the realized outage
  // fraction is noisy, and adjacent severities must stay separated by
  // more than that noise for the monotone column to be meaningful.
  fault_section(
      opts, s, plan,
      "Gilbert-Elliott outages: weighted loss vs. mean burst length",
      "burst(steps)", 0, {0.0, 2.0, 8.0, 32.0},
      [](double severity, Time link_delay) -> std::unique_ptr<Link> {
        faults::GilbertElliottConfig config;
        config.p_good_to_bad = severity > 0.0 ? 0.02 : 0.0;
        config.p_bad_to_good = severity > 0.0 ? 1.0 / severity : 1.0;
        return std::make_unique<faults::GilbertElliottLink>(
            link_delay, config,
            Rng(7700 + static_cast<std::uint64_t>(severity)));
      },
      ".bursts.csv", &stats, json_ptr, reg_ptr);
  // Severity = fraction of steps with zero deliverable rate; the active
  // steps carry 2R so the backlog can drain between outages. The period
  // is long enough that the outage window overruns the smoothing delay's
  // slack at the higher severities.
  fault_section(
      opts, s, plan,
      "throttling: weighted loss vs. outage fraction (2R when active)",
      "outage", 2, {0.0, 0.25, 0.5, 0.75},
      [rate](double severity, Time link_delay) -> std::unique_ptr<Link> {
        constexpr Time kPeriod = 48;
        const auto zeros = static_cast<Time>(severity * kPeriod + 0.5);
        std::vector<faults::FaultPhase> program;
        if (zeros > 0) program.push_back({.rate_cap = 0});
        program.push_back({.from = zeros, .rate_cap = 2 * rate});
        return std::make_unique<faults::ScheduledFaultLink>(
            link_delay, std::move(program), Rng(), /*feedback_delay=*/-1,
            kPeriod);
      },
      ".throttle.csv", &stats, json_ptr, reg_ptr);

  json.write(stats, reg);
  bench::print_run_stats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(rtsmooth::bench::parse_options(argc, argv));
}

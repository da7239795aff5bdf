// Lossy channel: smooth a clip over a link that actually misbehaves.
//
// The paper's channel (Sect. 2) never loses a byte; Sect. 6 leaves faulty
// links open. This example walks the fault subsystem end to end:
//   1. wrap the constant-delay link in a one-phase fault program
//      (ScheduledFaultLink, 5% i.i.d. loss),
//   2. let the server's recovery path NACK and retransmit what can still
//      make its playout deadline,
//   3. compare the client's two degradation modes (skip vs. stall),
//   4. read the InvariantMonitor's verdict on the Lemma 3.2-3.4 guarantees.
//
// The unrecovered run is the forensics showcase: it flies a FlightRecorder,
// so its first Lemma 3.3 violation freezes the trailing step window into an
// `rtsmooth-incident-v1` report (--incident), and its JSONL trace converts
// to a chrome://tracing / Perfetto timeline (--chrome-trace).
//
// Run:  ./examples/lossy_channel [loss-probability]
//                                [--incident PATH] [--chrome-trace PATH]

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/planner.h"
#include "faults/fault_schedule.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/cli.h"
#include "util/stats.h"

namespace {
constexpr const char* kUsage =
    "usage: lossy_channel [loss-probability (0..1)]\n"
    "                     [--incident PATH] [--chrome-trace PATH]";
}

int main(int argc, char** argv) {
  using namespace rtsmooth;

  double loss = 0.05;
  std::string incident_path;
  std::string chrome_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--incident") == 0 && i + 1 < argc) {
      incident_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else {
      loss = cli::require_double(argv[i], "loss-probability", kUsage, 0.0, 1.0);
    }
  }

  // Whole-frame slices so a lost piece leaves a *partial* frame at the
  // client — the case where stall and skip genuinely differ.
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 1500), trace::ValueModel::mpeg_default(),
      trace::Slicing::WholeFrame);
  const Bytes rate = sim::relative_rate(stream, 1.1);
  const Plan plan = Planner::from_buffer_rate(4 * stream.max_frame_bytes(),
                                              rate);
  std::cout << "erasure probability " << loss * 100 << "%, R = "
            << format_bytes(static_cast<double>(plan.rate)) << "/step, D = "
            << plan.delay << " steps\n\n";

  auto run_one = [&](const char* label, bool recover,
                     UnderflowPolicy underflow, obs::Telemetry telemetry) {
    sim::SimConfig config = sim::SimConfig::balanced(plan);
    config.underflow = underflow;
    config.recovery.enabled = recover;  // NACK + deadline-aware retransmit
    config.telemetry = telemetry;
    const SimReport report = sim::simulate(
        stream, config, "greedy",
        std::make_unique<faults::ScheduledFaultLink>(
            config.link_delay,
            std::vector<faults::FaultPhase>{{.loss_probability = loss}},
            Rng(2026)));
    std::cout << label << ":\n"
              << "  weighted loss   " << report.weighted_loss() * 100 << "%\n"
              << "  written off     "
              << format_bytes(static_cast<double>(report.lost_link.bytes))
              << "\n  retransmitted   "
              << format_bytes(static_cast<double>(report.retransmitted_bytes))
              << "\n  rebuffer steps  " << report.stall_steps
              << "\n  lemma 3.2-3.4 violations  "
              << report.invariants.total() << "\n";
  };

  // The unrecovered run carries the forensics instruments. The recorder's
  // 64-step window keeps the incident small enough to read whole; the
  // tracer's JSONL feeds the Chrome-trace exporter.
  obs::FlightRecorder recorder(
      obs::FlightRecorderConfig{.window = 64, .max_incidents = 1});
  std::ostringstream jsonl;
  obs::TraceWriter tracer(jsonl);
  run_one("no recovery, skip", false, UnderflowPolicy::Skip,
          obs::Telemetry{.tracer = &tracer, .recorder = &recorder});
  run_one("recovery, skip", true, UnderflowPolicy::Skip, {});
  run_one("recovery, stall", true, UnderflowPolicy::Stall, {});

  std::cout << "\nflight recorder: " << recorder.triggers_total()
            << " triggers, " << recorder.incidents().size()
            << " incident(s) captured\n";

  if (!incident_path.empty()) {
    if (recorder.incidents().empty()) {
      std::cerr << "no incident captured (loss too low?); nothing to write to "
                << incident_path << "\n";
      return 1;
    }
    obs::FlightRecorder::write_incident(recorder.incidents().front(),
                                        incident_path);
    std::cout << "incident report written to " << incident_path << "\n";
  }
  if (!chrome_path.empty()) {
    std::istringstream events(jsonl.str());
    const obs::Json trace = obs::chrome_trace_from_jsonl(events);
    std::ofstream out(chrome_path);
    out << trace.dump() << "\n";
    if (!out) {
      std::cerr << "failed to write " << chrome_path << "\n";
      return 1;
    }
    std::cout << "chrome trace (" << trace.size()
              << " events) written to " << chrome_path
              << " — open in chrome://tracing or ui.perfetto.dev\n";
  }
  return 0;
}

// sim_sparse — serial simulate() calls over short synthetic MPEG clips
// re-timed into five-frame bursts separated by long quiescent gaps (the
// shape of BM_SimulateSparseBurst), on the default engine with a null
// telemetry handle.
//
// Why it exists: it is the only workload dominated by idle slots, so
// retiring the slot-stepped loop should show here and nowhere else. The
// provisioning sheds a little in each burst, which keeps `policies` nearly
// idle; the null handle keeps `obs` out; it is single-threaded, so it is
// also the baseline that `sim` runner changes must leave flat. It loads
// `core` (arrival cursor, server buffer, link, client) and `trace` (set-up),
// and bypasses `offline`, `daemon` and `gateway`.
//
// One repetition: synthesize, slice and re-time the clips (set-up), then
// simulate every clip under every policy, one call at a time (the timed
// job; each call is one step-latency sample). Checks: every report
// conserves with no lemma violation on the lossless link, and every
// repetition reproduces the first.

#include <optional>
#include <string>
#include <vector>

#include "core/planner.h"
#include "harness.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "timed.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"

namespace rtbench {
namespace {

using rtsmooth::SimReport;
using rtsmooth::Stream;
namespace sim = rtsmooth::sim;
namespace trace = rtsmooth::trace;

constexpr std::size_t kClips = 2560;
constexpr std::size_t kFramesPerClip = 20;
constexpr std::size_t kBurstFrames = 5;
constexpr rtsmooth::Time kGapSlots = 500;
/// Link rate as a share of the dense clip's average rate, and buffer as a
/// multiple of its largest frame: a burst overflows the buffer a little.
constexpr double kRateFraction = 0.9;
constexpr double kBufferMultiple = 1.0;
const std::vector<std::string> kPolicies = {"tail-drop", "greedy"};

struct Clip {
  Stream stream;
  rtsmooth::Plan plan;
};

struct Inputs {
  std::vector<Clip> clips;
  double generate_s = 0;
  double slice_s = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (std::size_t k = 0; k < kClips; ++k) {
    const auto t0 = Clock::now();
    trace::MpegTraceModel model(trace::MpegModelConfig{}, mix_seed(seed, k));
    const trace::FrameSequence frames = model.generate(kFramesPerClip);
    const auto t1 = Clock::now();
    const Stream dense = trace::slice_frames(
        frames, trace::ValueModel::mpeg_default(), trace::Slicing::ByteSlices);
    std::vector<rtsmooth::SliceRun> runs(dense.runs().begin(),
                                         dense.runs().end());
    rtsmooth::Time arrival = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) arrival += (i % kBurstFrames == 0) ? kGapSlots : 1;
      runs[i].arrival = arrival;
    }
    Clip clip;
    clip.stream = Stream::from_runs(std::move(runs));
    const rtsmooth::Bytes buffer = std::max<rtsmooth::Bytes>(
        clip.stream.max_slice_size(),
        static_cast<rtsmooth::Bytes>(
            kBufferMultiple * static_cast<double>(dense.max_frame_bytes())));
    clip.plan = rtsmooth::Planner::from_buffer_rate(
        buffer, sim::relative_rate(dense, kRateFraction));
    in.clips.push_back(std::move(clip));
    in.generate_s += seconds_between(t0, t1);
    in.slice_s += seconds_since(t1);
  }
  return in;
}

}  // namespace

void run_sim_sparse(const Options& opts, Report& report) {
  JobTimes e2e;
  RepSeries layer;
  StepSamples call_latency;
  std::optional<std::vector<SimReport>> first;
  double weighted_loss = 0;

  RepLoop loop(opts.seconds);
  while (loop.next()) {
    const Inputs in = make_inputs(opts.seed);
    e2e.setup_s.push_back(in.generate_s + in.slice_s);
    layer.add("trace.generate_s", in.generate_s);
    layer.add("trace.slice_s", in.slice_s);

    std::vector<SimReport> reports;
    reports.reserve(in.clips.size() * kPolicies.size());
    LatencyHistogram& calls = call_latency.next_rep();
    const auto t0 = Clock::now();
    for (const Clip& clip : in.clips) {
      for (const std::string& policy : kPolicies) {
        const auto c0 = Clock::now();
        reports.push_back(sim::simulate(clip.stream, clip.plan, policy));
        calls.record_ns(ns_between(c0, Clock::now()));
      }
    }
    const double job_s = seconds_since(t0);

    SimReport pooled;
    std::int64_t slots = 0;
    for (const SimReport& r : reports) {
      report.check(r.conserves() && !r.invariants.any(),
                   "sparse simulate: report does not conserve or violates a "
                   "lemma on a lossless link");
      pooled += r;
      slots += r.steps;
    }
    if (!first) {
      first = reports;
      weighted_loss = pooled.weighted_loss();
    } else {
      report.check(reports == *first, "repetition differs from the first");
    }
    // Single-threaded by construction: the 1-thread rate is the same run.
    e2e.work = static_cast<double>(slots);
    e2e.job_s.push_back(job_s);

    if (!opts.trace) continue;
    SimLayers sims;
    std::size_t i = 0;
    for (const Clip& clip : in.clips) {
      for (const std::string& policy : kPolicies) {
        traced_simulate(clip.stream, sim::SimConfig::balanced(clip.plan),
                        policy, reports[i++], sims, report);
      }
    }
    const double simulate_s = sims.simulate_s();
    layer.add("sim.simulate_s", simulate_s);
    layer.add("sim.slots", static_cast<double>(sims.slots));
    layer.add("sim.ns_per_slot",
              1e9 * simulate_s / static_cast<double>(sims.slots));
    layer.add("core.link_calls", static_cast<double>(sims.link.calls()));
    layer.add("core.link_s", sims.link.seconds());
    layer.add("core.server_client_s", sims.server_client_s());
    for (const auto& [name, clock] : sims.shed) {
      layer.add("policies." + name + ".shed_calls",
                static_cast<double>(clock.calls()));
      layer.add("policies." + name + ".shed_bytes",
                static_cast<double>(clock.bytes()));
      layer.add("policies." + name + ".shed_s", clock.seconds());
    }
    layer.add("job_s", job_s);
    layer.add("traced_s", static_cast<double>(sims.decorated_ns) * 1e-9);
    if (loop.reps() == 1) {
      double share = 0;
      for (const Clip& clip : in.clips) {
        share += quiescent_slot_share(clip.stream,
                                      sim::SimConfig::balanced(clip.plan),
                                      kPolicies.front());
      }
      layer.add("core.quiescent_slot_share",
                share / static_cast<double>(in.clips.size()));
    }
  }

  check_reference(opts, weighted_loss, report);
  report.metric("weighted_loss", weighted_loss);
  report.metric("peak_rss_mb", peak_rss_mb());
  call_latency.report(report);
  if (!opts.trace) {
    e2e.report(report);
    return;
  }
  layer.emit_medians(report);
  reconcile("sim_sparse (traced simulate calls vs untraced job)",
            layer.min_of("sim.simulate_s"), layer.min_of("job_s"), 0.25,
            report);
  report.metric("bench.trace_overhead_s",
                layer.min_of("traced_s") - layer.min_of("job_s"));
}

}  // namespace rtbench

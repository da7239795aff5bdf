// The simulator's quiescent-span skipping (DESIGN.md Sect. 17), pinned
// against runs that step every slot (tests/differential.h's SteppingLink):
//
//   - Link::next_activity() / advance_to() contracts per link flavour —
//     including the Gilbert-Elliott lazy-replay property (batch catch-up
//     consumes the identical RNG draws as per-step polling).
//   - The stepping leg polls the link at every slot while a skipping run
//     polls it less, and a 10^12-slot gap is absorbed, not walked.
//   - Stepping-vs-skipping byte identity: full EngineArtifacts (SimReport,
//     JSONL trace, registry snapshot, flight-recorder incidents) under
//     ScheduledFaultLink programs (a constant erasure, a periodic throttle
//     and a cyclic program mixing loss, stalls and caps), GilbertElliottLink
//     and BoundedJitterLink across seeds, sparse and dense streams, recovery
//     on and off; plus ScheduleRecorder step/run equality with the span
//     back-fill.
//   - sweep() grids: results and merged registry snapshots byte-identical
//     to stepping runs of the same cells at RTSMOOTH_THREADS widths 1, 4
//     and 8 (mirroring the existing thread-invariance ctests).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/link.h"
#include "core/schedule.h"
#include "differential.h"
#include "faults/fault_links.h"
#include "faults/fault_schedule.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "policies/policy_factory.h"
#include "random_instances.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

// ---------------------------------------------- Link::next_activity hooks

/// A piece needs a live SliceRun behind it; one static run serves all the
/// direct link tests below.
const SliceRun& test_run() {
  static const SliceRun run = [] {
    SliceRun r;
    r.arrival = 0;
    r.slice_size = 1;
    r.count = 100;
    r.weight = 1.0;
    return r;
  }();
  return run;
}

std::vector<SentPiece> one_piece(Bytes bytes) {
  SentPiece piece;
  piece.run = &test_run();
  piece.bytes = bytes;
  return {piece};
}

TEST(NextActivity, FixedDelayLinkReportsHeadDeliveryStep) {
  FixedDelayLink link(3);
  EXPECT_EQ(link.next_activity(0), kNever);
  link.submit(2, one_piece(8));
  EXPECT_EQ(link.next_activity(3), 5);  // submitted at 2, delay 3
  (void)link.deliver(5);
  EXPECT_EQ(link.next_activity(6), kNever);
}

TEST(NextActivity, ThrottledLinkBacklogWaitsForOpenWindow) {
  // Cap 0 at steps 0..2 (mod 4), 4 bytes at step 3 (mod 4).
  faults::ScheduledFaultLink link(std::make_unique<FixedDelayLink>(1),
                                  {{.rate_cap = 0}, {.from = 3, .rate_cap = 4}},
                                  Rng(), /*feedback_delay=*/-1, /*period=*/4);
  link.submit(0, one_piece(8));  // nothing admitted, 8 bytes queued
  EXPECT_EQ(link.next_activity(1), 3);  // the next positive-cap step
}

TEST(NextActivity, ScheduledLinkBacklogWaitsForTheNextOpenPhase) {
  // Cyclic: 4 bytes at steps 0-1, a stall at steps 2-4, every 5 steps. A
  // backlog queued in the stall waits for the next lap's first phase.
  faults::ScheduledFaultLink cyclic(
      std::make_unique<FixedDelayLink>(1),
      {{.rate_cap = 4}, {.from = 2, .rate_cap = 0}}, Rng(),
      /*feedback_delay=*/-1, /*period=*/5);
  cyclic.submit(2, one_piece(8));
  EXPECT_EQ(cyclic.next_activity(2), 5);
  EXPECT_EQ(cyclic.next_activity(4), 5);
  EXPECT_EQ(cyclic.next_activity(5), 5);
  // One-shot: a stall until step 10, a 1-byte cap until 20, then uncapped.
  faults::ScheduledFaultLink once(
      std::make_unique<FixedDelayLink>(1),
      {{.rate_cap = 0}, {.from = 10, .rate_cap = 1}, {.from = 20}}, Rng());
  EXPECT_EQ(once.next_activity(3), kNever);  // nothing queued yet
  once.submit(3, one_piece(8));
  EXPECT_EQ(once.next_activity(3), 10);
  EXPECT_EQ(once.next_activity(12), 12);  // the cap admits a byte a step
}

/// A program whose cap never opens again can hold bytes forever; the link
/// must still never be reported silent while it does.
TEST(NextActivity, ProgramThatNeverOpensIsNeverSilent) {
  faults::ScheduledFaultLink stalls_after(
      std::make_unique<FixedDelayLink>(1),
      {{.rate_cap = 4}, {.from = 3, .rate_cap = 0}}, Rng());
  stalls_after.submit(3, one_piece(8));
  EXPECT_EQ(stalls_after.next_activity(3), 4);
  EXPECT_EQ(stalls_after.next_activity(1000), 1001);
  faults::ScheduledFaultLink always_stalled(
      std::make_unique<FixedDelayLink>(1), {{.rate_cap = 0}}, Rng(),
      /*feedback_delay=*/-1, /*period=*/2);
  always_stalled.submit(0, one_piece(8));
  EXPECT_EQ(always_stalled.next_activity(7), 8);
  EXPECT_FALSE(always_stalled.idle());
}

TEST(NextActivity, ErasureLinkPendingNackBoundsTheSpan) {
  // loss 1.0: the piece never reaches the inner link; the NACK surfaces at
  // t + 2 * min_delay (symmetric feedback path).
  faults::ScheduledFaultLink link(std::make_unique<FixedDelayLink>(2),
                                  {{.loss_probability = 1.0}}, Rng(99));
  (void)link.deliver(0);
  link.submit(0, one_piece(4));
  EXPECT_EQ(link.next_activity(1), 4);
  EXPECT_TRUE(link.deliver(4).empty());
  EXPECT_EQ(link.collect_nacks(4).size(), 1u);
}

// The lazy-replay contract: catching the loss chain up in one advance_to()
// batch must consume the identical RNG draws as polling deliver(t) every
// step, so the state (and every draw after it) agrees.
TEST(NextActivity, GilbertElliottAdvanceToMatchesPerStepPolling) {
  const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.35,
                                        .p_bad_to_good = 0.35,
                                        .loss_good = 0.0,
                                        .loss_bad = 1.0};
  faults::GilbertElliottLink polled(std::make_unique<FixedDelayLink>(1), ge,
                                    Rng(4242));
  faults::GilbertElliottLink batched(std::make_unique<FixedDelayLink>(1), ge,
                                     Rng(4242));
  for (Time t = 0; t <= 60; ++t) (void)polled.deliver(t);
  batched.advance_to(60);
  // With loss probabilities 0/1 the fate of each piece is a pure function
  // of the chain state, so identical states show up as identical delivery
  // and NACK sequences from here on.
  for (Time t = 61; t <= 90; ++t) {
    polled.submit(t, one_piece(1));
    batched.submit(t, one_piece(1));
    const auto a = polled.deliver(t);
    const auto b = batched.deliver(t);
    ASSERT_EQ(a.size(), b.size()) << "delivery divergence at t=" << t;
    ASSERT_EQ(polled.collect_nacks(t).size(), batched.collect_nacks(t).size())
        << "NACK divergence at t=" << t;
  }
}

// -------------------------------------- the stepping leg and idle spans

/// The stepping leg must really step: if its decorator let spans through,
/// every stepping-vs-skipping comparison below would compare skip with skip.
TEST(SteppingLeg, PollsTheLinkAtEverySlot) {
  Rng rng(0x57e95000);
  const Stream stream =
      testgen::corner_stream(rng, testgen::Corner::ZeroLengthBursts);
  sim::SimConfig config =
      testgen::corner_config(rng, stream, testgen::Corner::ZeroLengthBursts);
  config.recovery.enabled = true;
  config.recovery.max_retries = 2;
  const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.08,
                                        .p_bad_to_good = 0.3,
                                        .loss_good = 0.0,
                                        .loss_bad = 0.95};
  auto run = [&](bool stepping) {
    auto link = std::make_unique<difftest::SteppingLink>(
        std::make_unique<faults::GilbertElliottLink>(
            std::make_unique<FixedDelayLink>(config.link_delay), ge, Rng(11)),
        stepping);
    const difftest::SteppingLink& probe = *link;
    sim::SmoothingSimulator simulator(stream, config, make_policy("greedy"),
                                      std::move(link));
    const SimReport report = simulator.run();
    return std::pair{report, probe.polls()};
  };
  const auto [stepped, stepped_polls] = run(true);
  const auto [skipped, skipped_polls] = run(false);
  EXPECT_TRUE(stepped == skipped);
  EXPECT_EQ(stepped_polls, stepped.steps);
  EXPECT_LT(skipped_polls, skipped.steps);
}

/// Two runs a trillion slots apart: the gap must be absorbed as one span,
/// with no observer, a registry, a flight recorder or a runs-only schedule
/// recorder attached. Walking it slot by slot would take hours; the ctest
/// TIMEOUT on this binary turns that into a failure instead of a hang.
TEST(QuiescentSpans, TrillionSlotGapIsAbsorbedNotWalked) {
  constexpr Time kLastArrival = 1'000'000'000'000;
  const Stream stream = Stream::from_runs(
      {SliceRun{.arrival = 0, .count = 6},
       SliceRun{.arrival = kLastArrival, .count = 6}});
  const sim::SimConfig base =
      sim::SimConfig::balanced(Planner::from_delay_rate(3, 2));
  enum class Observer { None, Registry, Recorder, RunsOnly };
  for (const char* policy : {"tail-drop", "greedy"}) {
    for (const Observer observer : {Observer::None, Observer::Registry,
                                    Observer::Recorder, Observer::RunsOnly}) {
      obs::Registry registry;
      obs::FlightRecorder recorder;
      ScheduleRecorder runs(stream.run_count());
      sim::SimConfig config = base;
      if (observer == Observer::Registry) config.telemetry.registry = &registry;
      if (observer == Observer::Recorder) config.telemetry.recorder = &recorder;
      sim::SmoothingSimulator simulator(stream, config, make_policy(policy));
      const SimReport report =
          simulator.run(observer == Observer::RunsOnly ? &runs : nullptr);
      EXPECT_TRUE(report.conserves()) << policy;
      EXPECT_EQ(report.played.bytes, 12) << policy;
      EXPECT_EQ(report.steps, kLastArrival + config.link_delay +
                                  config.smoothing_delay + 1)
          << policy;
      if (observer == Observer::Registry) {
        EXPECT_EQ(registry.counter("sim.steps").value(), report.steps);
      }
      if (observer == Observer::Recorder) {
        // Every slot counted, and the ring holds the run's last steps.
        EXPECT_EQ(recorder.steps_recorded(), report.steps) << policy;
        const std::vector<obs::StepRecord> window = recorder.window();
        ASSERT_EQ(window.size(), recorder.config().window) << policy;
        for (std::size_t i = 0; i < window.size(); ++i) {
          EXPECT_EQ(window[i].t, report.steps -
                                     static_cast<Time>(window.size() - i))
              << policy;
        }
        EXPECT_EQ(window.back().played, 6) << policy;  // the last frame
        EXPECT_TRUE(recorder.incidents().empty()) << policy;
      }
      if (observer == Observer::RunsOnly) {
        EXPECT_EQ(runs.run(1).played, 6) << policy;
        EXPECT_EQ(runs.run(1).play_time, report.steps - 1) << policy;
      }
    }
  }
}

// ----------------------------------- stepping vs skipping: byte identity

void expect_stepping_skipping_identical(
    const Stream& stream, const sim::SimConfig& config,
    std::string_view policy, const std::string& reproducer,
    const difftest::LinkFactory& link = {}) {
  const difftest::EngineArtifacts stepping = difftest::run_engine(
      stream, config, policy, /*stepping=*/true, link);
  const difftest::EngineArtifacts skipping = difftest::run_engine(
      stream, config, policy, /*stepping=*/false, link);
  difftest::expect_legs_identical(stepping, skipping, reproducer);
}

struct LinkCase {
  const char* name;
  std::function<std::unique_ptr<Link>(Time delay, std::uint64_t seed)> make;
};

std::vector<LinkCase> fault_link_cases() {
  return {
      {"erasure",
       [](Time delay, std::uint64_t seed) -> std::unique_ptr<Link> {
         return std::make_unique<faults::ScheduledFaultLink>(
             std::make_unique<FixedDelayLink>(delay),
             std::vector<faults::FaultPhase>{{.loss_probability = 0.15}},
             Rng(seed));
       }},
      {"gilbert-elliott",
       [](Time delay, std::uint64_t seed) -> std::unique_ptr<Link> {
         const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.08,
                                               .p_bad_to_good = 0.3,
                                               .loss_good = 0.0,
                                               .loss_bad = 0.95};
         return std::make_unique<faults::GilbertElliottLink>(
             std::make_unique<FixedDelayLink>(delay), ge, Rng(seed));
       }},
      {"throttled",
       [](Time delay, std::uint64_t seed) -> std::unique_ptr<Link> {
         // The cap pattern {900, 0, 0, 300, 0, 1500}: one phase per run of
         // equal entries, the pattern's length as the period.
         return std::make_unique<faults::ScheduledFaultLink>(
             std::make_unique<FixedDelayLink>(delay),
             std::vector<faults::FaultPhase>{{.rate_cap = 900},
                                             {.from = 1, .rate_cap = 0},
                                             {.from = 3, .rate_cap = 300},
                                             {.from = 4, .rate_cap = 0},
                                             {.from = 5, .rate_cap = 1500}},
             Rng(seed), /*feedback_delay=*/-1, /*period=*/6);
       }},
      {"scheduled",
       [](Time delay, std::uint64_t seed) -> std::unique_ptr<Link> {
         // A cyclic program: loss alone, a full stall, then loss under a
         // cap, so pieces erased, stalled and split all cross skipped spans.
         return std::make_unique<faults::ScheduledFaultLink>(
             std::make_unique<FixedDelayLink>(delay),
             std::vector<faults::FaultPhase>{
                 {.loss_probability = 0.2},
                 {.from = 5, .rate_cap = 0},
                 {.from = 9, .loss_probability = 0.05, .rate_cap = 400}},
             Rng(seed), /*feedback_delay=*/-1, /*period=*/14);
       }},
      {"jitter",
       [](Time delay, std::uint64_t seed) -> std::unique_ptr<Link> {
         return std::make_unique<BoundedJitterLink>(delay, 2, Rng(seed));
       }},
  };
}

/// Every fault flavour × seeds × recovery on/off × dense and sparse
/// streams, each cell checked for full-artifact identity.
TEST(EventEngineIdentity, FaultMatrixAcrossSeedsAndRecovery) {
  const std::vector<LinkCase> cases = fault_link_cases();
  const std::vector<std::string> policies = {"tail-drop", "greedy"};
  std::size_t pick = 0;
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    for (const bool sparse : {false, true}) {
      Rng rng(0xe7e27000 + seed * 2 + (sparse ? 1 : 0));
      const Stream stream =
          sparse ? testgen::corner_stream(rng,
                                          testgen::Corner::ZeroLengthBursts)
                 : testgen::random_stream(rng);
      const sim::SimConfig base =
          sparse ? testgen::corner_config(rng, stream,
                                          testgen::Corner::ZeroLengthBursts)
                 : testgen::random_config(rng, stream);
      for (const LinkCase& link_case : cases) {
        for (const bool recovery : {false, true}) {
          sim::SimConfig config = base;
          config.recovery.enabled = recovery;
          if (recovery && config.recovery.max_retries == 0) {
            config.recovery.max_retries = 2;
          }
          const std::string& policy = policies[pick++ % policies.size()];
          const std::string reproducer =
              "link=" + std::string(link_case.name) +
              (sparse ? " stream=sparse" : " stream=dense") +
              " recovery=" + (recovery ? "on" : "off") +
              " policy=" + policy + "\n" +
              testgen::describe_instance(seed, stream, config);
          expect_stepping_skipping_identical(
              stream, config, policy, reproducer,
              [&link_case, &config, seed] {
                return link_case.make(config.link_delay, seed);
              });
          if (HasFailure()) return;  // one reproducer is enough
        }
      }
    }
  }
}

/// A skipping run back-fills one StepSets record per skipped slot, so a
/// RunsAndSteps ScheduleRecorder must come out element-identical too.
TEST(EventEngineIdentity, ScheduleRecorderStepsAndRunsMatch) {
  Rng rng(0x5ced5ced);
  const Stream stream =
      testgen::corner_stream(rng, testgen::Corner::ZeroLengthBursts);
  const sim::SimConfig config =
      testgen::corner_config(rng, stream, testgen::Corner::ZeroLengthBursts);
  auto record = [&](bool stepping) {
    sim::SmoothingSimulator simulator(
        stream, config, make_policy("tail-drop"),
        stepping ? difftest::stepping_link(config) : nullptr);
    auto rec = std::make_unique<ScheduleRecorder>(
        stream.run_count(), ScheduleRecorder::Level::RunsAndSteps);
    (void)simulator.run(rec.get());
    return rec;
  };
  const auto stepping = record(true);
  const auto skipping = record(false);
  ASSERT_EQ(stepping->steps().size(), skipping->steps().size());
  for (std::size_t i = 0; i < stepping->steps().size(); ++i) {
    ASSERT_TRUE(stepping->steps()[i] == skipping->steps()[i])
        << "StepSets divergence at index " << i
        << " (t=" << stepping->steps()[i].t << ")";
  }
  ASSERT_EQ(stepping->run_count(), skipping->run_count());
  for (std::size_t i = 0; i < stepping->run_count(); ++i) {
    ASSERT_TRUE(stepping->run(i) == skipping->run(i))
        << "RunOutcome divergence at run " << i;
  }
}

// ------------------------------------------------------------ sweep() grids

/// Invariance check: a registry-carrying sweep grid at every thread width
/// must equal its cells run by hand on the stepping leg, serially, with the
/// cell registries folded in submission order as sweep() folds them.
TEST(EventEngineSweep, GridMatchesSlotCoreAtEveryThreadWidth) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 60), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  sim::SweepSpec spec;
  spec.axis = sim::SweepAxis::BufferMultiple;
  spec.values = {2.0, 3.0, 4.0};
  spec.policies = {"tail-drop", "greedy"};
  for (const unsigned threads : {1u, 4u, 8u}) {
    obs::Registry skipping;
    spec.threads = threads;
    spec.registry = &skipping;
    const sim::SweepResult result = sim::sweep(stream, spec);
    ASSERT_EQ(result.points.size(), spec.values.size());
    obs::Registry stepping;
    for (const sim::SweepPoint& point : result.points) {
      for (const sim::PolicyOutcome& outcome : point.policies) {
        obs::Registry cell;
        sim::SimConfig config =
            sim::SimConfig::balanced(point.plan, spec.link_delay);
        config.telemetry.registry = &cell;
        sim::SmoothingSimulator simulator(stream, config,
                                          make_policy(outcome.policy),
                                          difftest::stepping_link(config));
        EXPECT_TRUE(simulator.run() == outcome.report)
            << "sweep cell diverges (stepping vs skipping@" << threads
            << ", x=" << point.x << ", " << outcome.policy << ")";
        stepping.merge(cell);
      }
    }
    EXPECT_EQ(skipping.to_json(/*include_timers=*/false).dump(),
              stepping.to_json(/*include_timers=*/false).dump())
        << "merged registry diverges (stepping vs skipping@" << threads
        << ")";
  }
}

TEST(EventEngineSweep, FaultAxisMatchesSlotCore) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 40), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  auto run_axis = [&stream](bool stepping, unsigned threads) {
    sim::SweepSpec spec;
    spec.axis = sim::SweepAxis::FaultSeverity;
    spec.values = {0.0, 0.1, 0.3};
    spec.policies = {"tail-drop"};
    spec.recovery.enabled = true;
    spec.recovery.max_retries = 2;
    spec.threads = threads;
    spec.link_factory = [stepping](double severity,
                                   Time delay) -> std::unique_ptr<Link> {
      auto link = std::make_unique<faults::ScheduledFaultLink>(
          std::make_unique<FixedDelayLink>(delay),
          std::vector<faults::FaultPhase>{{.loss_probability = severity}},
          Rng(7));
      if (!stepping) return link;
      return std::make_unique<difftest::SteppingLink>(std::move(link));
    };
    return sim::sweep(stream, spec);
  };
  const sim::SweepResult stepping = run_axis(true, 1);
  for (const unsigned threads : {1u, 4u}) {
    const sim::SweepResult skipping = run_axis(false, threads);
    EXPECT_TRUE(skipping.faults == stepping.faults)
        << "fault axis diverges (stepping@1 vs skipping@" << threads << ")";
  }
}

}  // namespace
}  // namespace rtsmooth

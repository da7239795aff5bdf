// Integration tests for the end-to-end simulator: conservation, the
// real-time property (every played frame plays exactly at AT + P + D), the
// client-transparency lemmas at B = R*D, and report sanity on real clips.

#include <gtest/gtest.h>

#include "core/link.h"
#include "policies/policy_factory.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stream_helpers.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

using sim::SimConfig;
using sim::SmoothingSimulator;
using testing::stream_of;
using testing::units;

Stream small_clip_stream(trace::Slicing slicing, std::size_t frames = 120) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(), slicing);
}

TEST(Simulator, LosslessWhenResourcesSuffice) {
  const Stream s = stream_of({units(0, 4, 2.0), units(1, 2), units(3, 5)});
  const Plan plan = Planner::from_delay_rate(4, 3);  // B=12 >= any burst
  const SimReport report = sim::simulate(s, plan, "tail-drop");
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.played.bytes, s.total_bytes());
  EXPECT_EQ(report.dropped_server.bytes, 0);
  EXPECT_DOUBLE_EQ(report.weighted_loss(), 0.0);
  EXPECT_DOUBLE_EQ(report.benefit_fraction(), 1.0);
}

TEST(Simulator, PlayoutTimesAreArrivalPlusPPlusD) {
  const Stream s = stream_of({units(0, 6), units(2, 3), units(5, 4)});
  const Plan plan = Planner::from_delay_rate(3, 2);
  const Time link_delay = 2;
  SmoothingSimulator simulator(s, SimConfig::balanced(plan, link_delay),
                               make_policy("tail-drop"));
  ScheduleRecorder rec(s.run_count());
  const SimReport report = simulator.run(&rec);
  EXPECT_TRUE(report.conserves());
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    if (rec.run(i).played == 0) continue;
    EXPECT_EQ(rec.run(i).play_time,
              s.runs()[i].arrival + link_delay + plan.delay);
  }
}

TEST(Simulator, ReceiveTimesSatisfyLemma33) {
  // t + P <= RT <= t + P + B/R for every delivered byte.
  const Stream s = stream_of({units(0, 12), units(1, 9), units(4, 8)});
  const Plan plan = Planner::from_delay_rate(4, 2);  // B=8
  const Time p = 3;
  SmoothingSimulator simulator(s, SimConfig::balanced(plan, p),
                               make_policy("tail-drop"));
  ScheduleRecorder rec(s.run_count());
  simulator.run(&rec);
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    const RunOutcome& out = rec.run(i);
    if (out.first_receive == kNever) continue;
    EXPECT_GE(out.first_receive, s.runs()[i].arrival + p);
    EXPECT_LE(out.last_receive,
              s.runs()[i].arrival + p + plan.buffer / plan.rate);
  }
}

TEST(Simulator, NoClientLossAtBalancedPlan) {
  // Lemmas 3.3 + 3.4: with B = RD and Bc = B, the client neither overflows
  // nor misses deadlines, for every policy.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (const auto& policy : known_policies()) {
    const SimReport report = sim::simulate(s, plan, policy);
    EXPECT_TRUE(report.conserves()) << policy;
    EXPECT_EQ(report.dropped_client_overflow.bytes, 0) << policy;
    EXPECT_EQ(report.dropped_client_late.bytes, 0) << policy;
    EXPECT_EQ(report.residual.bytes, 0) << policy;
    EXPECT_LE(report.max_client_occupancy, plan.buffer) << policy;
    EXPECT_LE(report.max_server_occupancy, plan.buffer) << policy;
    EXPECT_LE(report.max_link_bytes_per_step, plan.rate) << policy;
  }
}

TEST(Simulator, UndersizedClientBufferOverflows) {
  // Sect. 3.3: Bc < B wastes data. Give the client a quarter of B.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices);
  const Bytes rate = sim::relative_rate(s, 1.0);
  const Plan plan = Planner::from_buffer_rate(4 * s.max_frame_bytes(), rate);
  SimConfig config = SimConfig::balanced(plan);
  config.client_buffer = plan.buffer / 4;
  SmoothingSimulator simulator(s, config, make_policy("tail-drop"));
  const SimReport report = simulator.run();
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.dropped_client_overflow.bytes, 0);
}

TEST(Simulator, TooSmallDelayCausesDeadlineMisses) {
  // D < B/R makes late deliveries possible (Sect. 3.3 observation 1).
  const Stream s = stream_of({units(0, 12), units(1, 2), units(2, 2)});
  SimConfig config{.server_buffer = 12,
                   .client_buffer = 12,
                   .rate = 2,
                   .smoothing_delay = 1,  // B/R = 6 needed
                   .link_delay = 1};
  SmoothingSimulator simulator(s, config, make_policy("tail-drop"));
  const SimReport report = simulator.run();
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.dropped_client_late.bytes, 0);
}

TEST(Simulator, LinkSlowerThanConfiguredSetsMaxLateness) {
  // Tail-drop at R = B = 10, D = 1 and a configured P = 1, but the link
  // takes 4 steps: every frame is sent on arrival and reaches the client 2
  // steps after its playout step AT + P + D.
  std::vector<SliceRun> runs;
  for (Time f = 0; f < 20; ++f) runs.push_back(units(f, 10));
  const Stream s = stream_of(std::move(runs));
  const SimConfig config{.server_buffer = 10,
                         .client_buffer = 10,
                         .rate = 10,
                         .smoothing_delay = 1,
                         .link_delay = 1};
  const SimReport report = sim::simulate(s, config, "tail-drop",
                                         std::make_unique<FixedDelayLink>(4));
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.dropped_client_late.bytes, 200);
  EXPECT_EQ(report.max_lateness, 2);
}

TEST(Simulator, GreedyBeatsTailDropOnWeightedClip) {
  // The headline experimental observation (Fig. 2): under pressure, Greedy's
  // weighted loss is at most Tail-Drop's.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 260);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  const SimReport greedy = sim::simulate(s, plan, "greedy");
  const SimReport tail = sim::simulate(s, plan, "tail-drop");
  EXPECT_GT(tail.dropped_server.bytes, 0);
  EXPECT_LE(greedy.weighted_loss(), tail.weighted_loss());
}

TEST(Simulator, ByteLossesMatchAcrossPoliciesOnUnitSlices) {
  // Theorem 3.5 corollary: with unit slices the *byte* loss is identical
  // for every pure-overflow policy; only the weighted loss differs.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 200);
  const Bytes rate = sim::relative_rate(s, 0.85);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  const Bytes reference =
      sim::simulate(s, plan, "tail-drop").dropped_server.bytes;
  for (const char* policy : {"greedy", "head-drop", "random"}) {
    EXPECT_EQ(sim::simulate(s, plan, policy).dropped_server.bytes, reference)
        << policy;
  }
}

TEST(Simulator, WholeFrameSlicingConserves) {
  const Stream s = small_clip_stream(trace::Slicing::WholeFrame, 150);
  const Bytes rate = sim::relative_rate(s, 0.8);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (const char* policy : {"tail-drop", "greedy"}) {
    const SimReport report = sim::simulate(s, plan, policy);
    EXPECT_TRUE(report.conserves()) << policy;
    EXPECT_GT(report.played.bytes, 0) << policy;
  }
}

TEST(Simulator, OfflineOptimalNeverWorseThanOnline) {
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 150);
  const Bytes rate = sim::relative_rate(s, 0.8);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  const auto optimal = sim::offline_optimal(s, plan.buffer, plan.rate);
  for (const auto& policy : known_policies()) {
    const SimReport report = sim::simulate(s, plan, policy);
    EXPECT_LE(report.benefit_fraction(), optimal.benefit_fraction + 1e-9)
        << policy;
  }
}

TEST(Simulator, PerTypeTalliesSumToTotals) {
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 150);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  const SimReport report = sim::simulate(s, plan, "greedy");
  Bytes offered = 0;
  Bytes played = 0;
  for (const auto& tally : report.offered_by_type) offered += tally.bytes;
  for (const auto& tally : report.played_by_type) played += tally.bytes;
  EXPECT_EQ(offered, report.offered.bytes);
  EXPECT_EQ(played, report.played.bytes);
}

TEST(Simulator, TimerPlayoutEquivalentToFormulaOnFixedLink) {
  // Sect. 3.3: "the algorithm works without explicit clock
  // synchronization" — the timer-armed client produces the identical
  // schedule under the generic server on a zero-jitter link.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 200);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (const char* policy : {"tail-drop", "greedy"}) {
    SimConfig formula = SimConfig::balanced(plan, /*link_delay=*/3);
    SimConfig timer = formula;
    timer.playout = PlayoutMode::TimerFromFirstDelivery;
    SmoothingSimulator sim_formula(s, formula, make_policy(policy));
    SmoothingSimulator sim_timer(s, timer, make_policy(policy));
    ScheduleRecorder rec_formula(s.run_count());
    ScheduleRecorder rec_timer(s.run_count());
    const SimReport a = sim_formula.run(&rec_formula);
    const SimReport b = sim_timer.run(&rec_timer);
    EXPECT_EQ(a.played.bytes, b.played.bytes) << policy;
    EXPECT_DOUBLE_EQ(a.played.weight, b.played.weight) << policy;
    for (std::size_t i = 0; i < s.run_count(); ++i) {
      EXPECT_EQ(rec_formula.run(i).play_time, rec_timer.run(i).play_time)
          << policy << " run " << i;
    }
  }
}

TEST(Simulator, TimerPlayoutSelfCalibratesUnderJitter) {
  // On a jittery link the formula client misses deadlines, while the timer
  // client anchors to the first byte's *actual* delay — it can only be
  // late by jitter variation, never by the full jitter.
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 200);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  const Time j = 6;
  auto run_mode = [&](PlayoutMode mode) {
    SimConfig config = SimConfig::balanced(plan, /*link_delay=*/2);
    config.playout = mode;
    config.client_buffer += j * plan.rate;  // room for delivery bunching
    SmoothingSimulator simulator(
        s, config, make_policy("greedy"),
        std::make_unique<BoundedJitterLink>(2, j, Rng(42)));
    return simulator.run();
  };
  const SimReport formula = run_mode(PlayoutMode::ArrivalPlusOffset);
  const SimReport timer = run_mode(PlayoutMode::TimerFromFirstDelivery);
  EXPECT_TRUE(timer.conserves());
  EXPECT_GT(formula.dropped_client_late.bytes, 0);
  EXPECT_LT(timer.dropped_client_late.bytes,
            formula.dropped_client_late.bytes);
}

TEST(Simulator, EnlargingOnlyOneBufferDoesNotHelp) {
  // Sect. 3.1: "The buffer space needed at the client and the server is
  // equal to B: making only one of the buffers bigger does not help."
  const Stream s = small_clip_stream(trace::Slicing::ByteSlices, 200);
  const Bytes rate = sim::relative_rate(s, 0.85);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  SimConfig balanced = SimConfig::balanced(plan);
  SimConfig big_server = balanced;
  big_server.server_buffer *= 4;  // D unchanged: extra space admits bytes
                                  // that then miss their deadline
  SimConfig big_client = balanced;
  big_client.client_buffer *= 4;
  SmoothingSimulator sim_balanced(s, balanced, make_policy("tail-drop"));
  SmoothingSimulator sim_server(s, big_server, make_policy("tail-drop"));
  SmoothingSimulator sim_client(s, big_client, make_policy("tail-drop"));
  const Bytes base = sim_balanced.run().played.bytes;
  EXPECT_LE(sim_server.run().played.bytes, base);
  EXPECT_EQ(sim_client.run().played.bytes, base);
}

using SimulatorDeathTest = ::testing::Test;

TEST(Simulator, BufferSmallerThanLargestSliceIsADescriptiveError) {
  const Stream s = stream_of({testing::slice(0, 10)});
  SimConfig config{.server_buffer = 5,
                   .client_buffer = 5,
                   .rate = 1,
                   .smoothing_delay = 5,
                   .link_delay = 1};
  EXPECT_FALSE(config.validate(s).empty());
  try {
    SmoothingSimulator sim(s, config, make_policy("tail-drop"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("largest slice"), std::string::npos) << what;
    EXPECT_NE(what.find("10"), std::string::npos) << what;  // the slice size
  }
}

TEST(Simulator, ValidateAcceptsRunnableConfigs) {
  const Stream s = stream_of({testing::slice(0, 10)});
  SimConfig config{.server_buffer = 10,
                   .client_buffer = 10,
                   .rate = 2,
                   .smoothing_delay = 5,
                   .link_delay = 1};
  EXPECT_EQ(config.validate(s), "");
  SimConfig bad_rate = config;
  bad_rate.rate = 0;
  EXPECT_NE(bad_rate.validate(s), "");
  SimConfig bad_backoff = config;
  bad_backoff.recovery.backoff_base = 0;
  EXPECT_NE(bad_backoff.validate(s), "");
}

TEST(SimulatorDeathTest, RunTwiceAborts) {
  const Stream s = stream_of({units(0, 2)});
  SmoothingSimulator simulator(
      s, SimConfig::balanced(Planner::from_delay_rate(2, 1)),
      make_policy("tail-drop"));
  simulator.run();
  EXPECT_DEATH(simulator.run(), "precondition");
}

}  // namespace
}  // namespace rtsmooth

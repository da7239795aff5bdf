// Tests for the multi-hop tandem substrate: conservation, per-hop drop
// placement, homogeneous-path properties, bottleneck dominance and the
// end-to-end delay law.

#include <gtest/gtest.h>

#include <string>

#include "analysis/competitive.h"
#include "policies/policy_factory.h"
#include "policies/tail_drop.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stream_helpers.h"
#include "tandem/tandem.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth::tandem {
namespace {

using testing::stream_of;
using testing::units;

Stream clip(std::size_t frames, double rate_fraction, Bytes* rate_out) {
  Stream s = trace::slice_frames(trace::stock_clip("cnn-news", frames),
                                 trace::ValueModel::mpeg_default(),
                                 trace::Slicing::ByteSlices);
  *rate_out = sim::relative_rate(s, rate_fraction);
  return s;
}

TEST(Tandem, SingleHopMatchesSingleLinkSimulator) {
  // One hop is the simulator's own server -> link -> client step, so on the
  // balanced plan the whole reports agree, invariant tallies included (a
  // balanced lossless run has none), for every policy.
  Bytes rate = 0;
  const Stream s = clip(150, 0.9, &rate);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  for (const std::string& policy : known_policies()) {
    TandemSimulator tandem(s, {HopConfig{.buffer = plan.buffer,
                                         .rate = plan.rate,
                                         .link_delay = 1}},
                           *make_policy(policy), plan.delay, plan.buffer);
    const SimReport got = tandem.run().end_to_end;
    const SimReport want = sim::simulate(s, plan, policy);
    EXPECT_TRUE(got == want)
        << policy << ": tandem {" << got
        << ", max_link=" << got.max_link_bytes_per_step << "} vs simulator {"
        << want << ", max_link=" << want.max_link_bytes_per_step << "}";
  }
}

TEST(Tandem, HomogeneousPathDropsOnlyAtTheFirstHop) {
  // After hop 1 shapes traffic to <= R per slot, a downstream hop with
  // B >= R never overflows.
  Bytes rate = 0;
  const Stream s = clip(200, 0.85, &rate);
  std::vector<HopConfig> hops;
  for (int h = 0; h < 4; ++h) {
    hops.push_back(HopConfig{.buffer = (h == 0 ? 2 * s.max_frame_bytes()
                                               : rate),
                             .rate = rate,
                             .link_delay = 2});
  }
  TandemSimulator tandem(s, hops, TailDropPolicy{});
  const TandemReport report = tandem.run();
  EXPECT_TRUE(report.end_to_end.conserves());
  EXPECT_GT(report.hop_drops[0].bytes, 0);
  for (std::size_t h = 1; h < report.hop_drops.size(); ++h) {
    EXPECT_EQ(report.hop_drops[h].bytes, 0) << "hop " << h;
  }
  EXPECT_EQ(report.end_to_end.dropped_client_late.bytes, 0);
  EXPECT_EQ(report.end_to_end.dropped_client_overflow.bytes, 0);
  EXPECT_EQ(report.end_to_end.residual.bytes, 0);
}

TEST(Tandem, HomogeneousPathThroughputEqualsSingleLink) {
  Bytes rate = 0;
  const Stream s = clip(200, 0.85, &rate);
  // Use the plan's (rate-aligned) buffer for hop 1 so the comparison is
  // byte-exact against the single-link simulator.
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(), rate);
  std::vector<HopConfig> hops;
  for (int h = 0; h < 3; ++h) {
    hops.push_back(HopConfig{.buffer = (h == 0 ? plan.buffer : rate),
                             .rate = rate,
                             .link_delay = 1});
  }
  TandemSimulator tandem(s, hops, TailDropPolicy{});
  EXPECT_EQ(tandem.run().end_to_end.played.bytes,
            sim::simulate(s, plan, "tail-drop").played.bytes);
}

TEST(Tandem, BottleneckHopDoesTheDropping) {
  Bytes rate = 0;
  const Stream s = clip(200, 1.2, &rate);  // fast edges...
  const Bytes slow = sim::relative_rate(s, 0.8);  // ...slow middle
  std::vector<HopConfig> hops = {
      HopConfig{.buffer = 2 * s.max_frame_bytes(), .rate = rate,
                .link_delay = 1},
      HopConfig{.buffer = 2 * s.max_frame_bytes(), .rate = slow,
                .link_delay = 1},
      HopConfig{.buffer = slow, .rate = rate, .link_delay = 1},
  };
  TandemSimulator tandem(s, hops, TailDropPolicy{});
  const TandemReport report = tandem.run();
  EXPECT_TRUE(report.end_to_end.conserves());
  EXPECT_GT(report.hop_drops[1].bytes, 0);
  EXPECT_EQ(report.hop_drops[2].bytes, 0);
  // Anything the fast first hop drops, the bottleneck would have dropped
  // anyway; end-to-end loss should be within a whisker of the single
  // bottleneck link's loss with the same bottleneck buffer.
  const Plan bottleneck =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(), slow);
  const SimReport single = sim::simulate(s, bottleneck, "tail-drop");
  EXPECT_NEAR(static_cast<double>(report.end_to_end.played.bytes),
              static_cast<double>(single.played.bytes),
              0.02 * static_cast<double>(single.played.bytes));
}

TEST(Tandem, PlayoutOffsetIsSumOfDelaysPlusD) {
  const Stream s = stream_of({units(0, 6), units(1, 4)});
  std::vector<HopConfig> hops = {
      HopConfig{.buffer = 6, .rate = 2, .link_delay = 3},
      HopConfig{.buffer = 4, .rate = 2, .link_delay = 2},
  };
  TandemSimulator tandem(s, hops, TailDropPolicy{});
  const TandemReport report = tandem.run();
  EXPECT_EQ(report.smoothing_delay, 3 + 2);  // ceil(6/2) + ceil(4/2)
  EXPECT_EQ(report.playout_offset, (3 + 2) + (3 + 2));
  EXPECT_TRUE(report.end_to_end.conserves());
  EXPECT_EQ(report.end_to_end.played.bytes, s.total_bytes());
}

TEST(Tandem, GreedyPolicyAppliesPerHop) {
  Bytes rate = 0;
  const Stream s = clip(200, 0.85, &rate);
  std::vector<HopConfig> hops = {
      HopConfig{.buffer = 2 * s.max_frame_bytes(), .rate = rate,
                .link_delay = 1},
      HopConfig{.buffer = rate, .rate = rate, .link_delay = 1},
  };
  TandemSimulator greedy(s, hops, *make_policy("greedy"));
  TandemSimulator tail(s, hops, *make_policy("tail-drop"));
  const TandemReport g = greedy.run();
  const TandemReport t = tail.run();
  EXPECT_EQ(g.end_to_end.played.bytes, t.end_to_end.played.bytes);
  EXPECT_GE(g.end_to_end.played.weight, t.end_to_end.played.weight);
}

TEST(Tandem, RandomPathsConserve) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const Stream s = analysis::random_unit_stream(rng, 30, 10, 5.0);
    std::vector<HopConfig> hops;
    const auto hop_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t h = 0; h < hop_count; ++h) {
      hops.push_back(HopConfig{.buffer = rng.uniform_int(2, 10),
                               .rate = rng.uniform_int(1, 4),
                               .link_delay = rng.uniform_int(0, 3)});
    }
    TandemSimulator tandem(s, hops, TailDropPolicy{});
    const TandemReport report = tandem.run();
    EXPECT_TRUE(report.end_to_end.conserves()) << "trial " << trial;
    EXPECT_EQ(report.end_to_end.dropped_client_late.bytes, 0)
        << "trial " << trial;
  }
}

using TandemDeathTest = ::testing::Test;

TEST(TandemDeathTest, RejectsVariableSizeSlices) {
  const Stream s = stream_of({testing::slice(0, 5)});
  EXPECT_DEATH(TandemSimulator(s, {HopConfig{.buffer = 8, .rate = 2}},
                               TailDropPolicy{}),
               "precondition");
}

}  // namespace
}  // namespace rtsmooth::tandem

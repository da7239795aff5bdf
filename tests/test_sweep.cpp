// Tests for the sweep helpers that drive the figure benches, plus
// figure-level shape assertions (the qualitative claims of Sect. 5 must
// hold for any seed of the synthetic clip, not just the one in the bench).

#include <gtest/gtest.h>

#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth::sim {
namespace {

Stream clip(std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

TEST(RelativeRate, ScalesAverageAndClampsToOne) {
  const Stream s = clip(200);
  EXPECT_NEAR(static_cast<double>(relative_rate(s, 1.0)), s.average_rate(),
              1.0);
  EXPECT_NEAR(static_cast<double>(relative_rate(s, 0.5)),
              0.5 * s.average_rate(), 1.0);
  // A microscopic fraction still yields a usable rate.
  EXPECT_GE(relative_rate(s, 1e-9), 1);
}

TEST(BufferSweep, ProducesOnePointPerMultiple) {
  const Stream s = clip(150);
  const auto result =
      sweep(s, SweepSpec{.axis = SweepAxis::BufferMultiple,
                         .values = {1, 2, 4},
                         .policies = {"tail-drop", "greedy"},
                         .with_optimal = true,
                         .rate = relative_rate(s, 1.0)});
  const auto& points = result.points;
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(result.stats.tasks, 9u);  // 3 points x (2 policies + optimal)
  for (const auto& point : points) {
    EXPECT_EQ(point.policies.size(), 2u);
    EXPECT_TRUE(point.has_optimal);
    // B = D*R and B at least the requested multiple of the max frame.
    EXPECT_EQ(point.plan.buffer, point.plan.delay * point.plan.rate);
    EXPECT_GE(point.plan.buffer,
              static_cast<Bytes>(point.x) * s.max_frame_bytes());
  }
}

TEST(BufferSweep, Fig2ShapeHolds) {
  // More buffer never hurts, Greedy <= Tail-Drop, Optimal <= Greedy.
  const Stream s = clip(400);
  const auto points =
      sweep(s, SweepSpec{.axis = SweepAxis::BufferMultiple,
                         .values = {1, 3, 9},
                         .policies = {"tail-drop", "greedy"},
                         .with_optimal = true,
                         .rate = relative_rate(s, 0.95)})
          .points;
  double last_tail = 1.0;
  for (const auto& point : points) {
    const double tail = point.policies[0].report.weighted_loss();
    const double greedy = point.policies[1].report.weighted_loss();
    EXPECT_LE(greedy, tail + 1e-9) << "x=" << point.x;
    EXPECT_LE(point.optimal.weighted_loss, greedy + 1e-9) << "x=" << point.x;
    EXPECT_LE(tail, last_tail + 1e-9) << "x=" << point.x;
    last_tail = tail;
  }
}

TEST(RateSweep, Fig4ShapeHolds) {
  // Benefit is nondecreasing in the link rate, for every policy and the
  // optimum.
  const Stream s = clip(400);
  const std::vector<std::string> policies = {"tail-drop", "greedy"};
  const auto points = sweep(s, SweepSpec{.axis = SweepAxis::RateFraction,
                                         .values = {0.5, 0.8, 1.1, 1.4},
                                         .policies = policies,
                                         .with_optimal = true,
                                         .buffer_multiple = 4.0})
                          .points;
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      EXPECT_GE(points[i].policies[p].report.benefit_fraction() + 1e-9,
                points[i - 1].policies[p].report.benefit_fraction())
          << policies[p] << " at x=" << points[i].x;
    }
    EXPECT_GE(points[i].optimal.benefit_fraction + 1e-9,
              points[i - 1].optimal.benefit_fraction);
  }
  // Past the average rate with a real buffer, losses are minor.
  EXPECT_GE(points.back().policies[1].report.benefit_fraction(), 0.99);
}

TEST(RateSweep, OptimalDominatesEveryPolicyEverywhere) {
  const Stream s = clip(250);
  const auto points =
      sweep(s, SweepSpec{.axis = SweepAxis::RateFraction,
                         .values = {0.6, 1.0},
                         .policies = {"tail-drop", "greedy", "head-drop"},
                         .with_optimal = true,
                         .buffer_multiple = 2.0})
          .points;
  for (const auto& point : points) {
    for (const auto& outcome : point.policies) {
      EXPECT_LE(outcome.report.benefit_fraction(),
                point.optimal.benefit_fraction + 1e-9)
          << outcome.policy << " at x=" << point.x;
    }
  }
}

TEST(RateSweep, LowRateWholeFrameOptimumDoesNotAbort) {
  // A 300-frame whole-frame clip has more than 256 slices, so the optimum
  // is the quantized bracket; its quantum (buffer / 2048, about 120 B here)
  // must not round a 38-B rate down to nothing.
  const Stream s =
      trace::slice_frames(trace::stock_clip("cnn-news", 300),
                          trace::ValueModel::mpeg_default(),
                          trace::Slicing::WholeFrame);
  const auto points = sweep(s, SweepSpec{.axis = SweepAxis::RateFraction,
                                         .values = {0.001},
                                         .policies = {},
                                         .with_optimal = true,
                                         .buffer_multiple = 2.0})
                          .points;
  ASSERT_EQ(points.size(), 1u);
  ASSERT_TRUE(points[0].has_optimal);
  EXPECT_GE(points[0].optimal.weighted_loss, 0.0);
  EXPECT_LE(points[0].optimal.weighted_loss, 1.0);
}

}  // namespace
}  // namespace rtsmooth::sim

// Unit and cross-validation tests for the off-line solvers: the segment
// tree, the two feasibility forms, the polymatroid greedy (unit slices), the
// Pareto DP (variable slices) and its quantized bracket, and the brute-force
// oracle tying them all together.

#include <gtest/gtest.h>

#include <limits>

#include "analysis/competitive.h"
#include "brute_force.h"
#include "core/planner.h"
#include "feasibility.h"
#include "offline/pareto_dp.h"
#include "offline/segment_tree.h"
#include "offline/unit_optimal.h"
#include "reference_offline.h"
#include "sim/sweep.h"
#include "stream_helpers.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

using offline::arrivals_of;
using offline::brute_force_optimal;
using offline::ByteArrivals;
using offline::feasible;
using offline::feasible_interval_form;
using offline::lindley_peak;
using offline::pareto_dp_optimal;
using offline::RangeAddTree;
using offline::unit_optimal;
using testing::slice;
using testing::stream_of;
using testing::units;

// ---------------------------------------------------------------- seg tree

TEST(SegmentTree, AffineInitialization) {
  RangeAddTree t(6, 10, -3);  // 10, 7, 4, 1, -2, -5
  EXPECT_EQ(t.split(0).suffix_max, 7);
  EXPECT_EQ(t.split(0).prefix_min, 10);
  EXPECT_EQ(t.split(2).suffix_max, 1);
  EXPECT_EQ(t.split(2).prefix_min, 4);
  EXPECT_EQ(t.split(4).suffix_max, -5);
  EXPECT_EQ(t.split(4).prefix_min, -2);
  // The last index has an empty suffix.
  EXPECT_EQ(t.split(5).suffix_max, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(t.split(5).prefix_min, -5);
}

TEST(SegmentTree, RangeAddShiftsQueries) {
  RangeAddTree t(5, 0, 0);
  t.add_suffix(1, 7);  // 0, 0, 7, 7, 7
  EXPECT_EQ(t.split(0).suffix_max, 7);
  EXPECT_EQ(t.split(1).prefix_min, 0);
  EXPECT_EQ(t.split(2).prefix_min, 0);
  EXPECT_EQ(t.split(3).suffix_max, 7);
  t.add_suffix(0, -2);  // 0, -2, 5, 5, 5
  EXPECT_EQ(t.split(0).suffix_max, 5);
  EXPECT_EQ(t.split(0).prefix_min, 0);
  EXPECT_EQ(t.split(1).prefix_min, -2);
  EXPECT_EQ(t.split(3).prefix_min, -2);
  t.add_suffix(4, 100);  // the suffix after the last index is empty
  EXPECT_EQ(t.split(3).suffix_max, 5);
  EXPECT_EQ(t.split(4).prefix_min, -2);
}

TEST(SegmentTree, MatchesNaiveOnRandomOperations) {
  Rng rng(31);
  // One leaf, two, a power of two (no padding), a power of two plus one
  // (the last real leaf alone in its subtree), and a ragged size.
  for (const std::size_t n : {1u, 2u, 16u, 17u, 40u}) {
    RangeAddTree t(n, 3, 2);
    std::vector<std::int64_t> naive(n);
    for (std::size_t i = 0; i < n; ++i) {
      naive[i] = 3 + 2 * static_cast<std::int64_t>(i);
    }
    const auto check = [&](std::size_t at) {
      std::int64_t mx = std::numeric_limits<std::int64_t>::min();
      std::int64_t mn = naive[0];
      for (std::size_t i = 0; i < n; ++i) {
        if (i <= at) mn = std::min(mn, naive[i]);
        if (i > at) mx = std::max(mx, naive[i]);
      }
      const RangeAddTree::Split got = t.split(at);
      EXPECT_EQ(got.suffix_max, mx) << "n=" << n << " t=" << at;
      EXPECT_EQ(got.prefix_min, mn) << "n=" << n << " t=" << at;
    };
    for (int op = 0; op < 500; ++op) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.5)) {
        const std::int64_t delta = rng.uniform_int(-20, 20);
        t.add_suffix(at, delta);
        for (std::size_t i = at + 1; i < n; ++i) naive[i] += delta;
      } else {
        check(at);
      }
      // The solver's edges: the first index and the last one with a
      // non-empty suffix.
      check(0);
      if (n >= 2) check(n - 2);
    }
  }
}

// ------------------------------------------------------------- feasibility

TEST(Feasibility, LindleyPeakSimple) {
  // 5 bytes at t=0, rate 2: occupancy 3, 1, 0.
  const ByteArrivals a = {{0, 5}};
  EXPECT_EQ(lindley_peak(a, 2), 3);
}

TEST(Feasibility, LindleyDrainsAcrossGaps) {
  const ByteArrivals a = {{0, 10}, {5, 10}};
  // After step 0: 8; steps 1-4 drain 8 more -> 0; step 5: 8 again.
  EXPECT_EQ(lindley_peak(a, 2), 8);
}

TEST(Feasibility, BothFormsAgreeOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    ByteArrivals a;
    Time t = 0;
    const int steps = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < steps; ++i) {
      t += rng.uniform_int(1, 3);
      a.emplace_back(t, rng.uniform_int(0, 9));
    }
    const Bytes buffer = rng.uniform_int(0, 12);
    const Bytes rate = rng.uniform_int(1, 4);
    EXPECT_EQ(feasible(a, buffer, rate),
              feasible_interval_form(a, buffer, rate))
        << "trial " << trial;
  }
}

TEST(Feasibility, ArrivalsOfAggregatesRuns) {
  const Stream s = stream_of({units(2, 3), slice(2, 4), units(5, 1)});
  const ByteArrivals a = arrivals_of(s);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], (std::pair<Time, Bytes>{2, 7}));
  EXPECT_EQ(a[1], (std::pair<Time, Bytes>{5, 1}));
}

// ------------------------------------------------------------ unit optimal

TEST(UnitOptimal, AcceptsEverythingWhenFeasible) {
  const Stream s = stream_of({units(0, 3, 5.0), units(1, 2, 1.0)});
  const auto result = unit_optimal(s, /*buffer=*/5, /*rate=*/2);
  EXPECT_DOUBLE_EQ(result.benefit, 17.0);
  EXPECT_EQ(result.accepted_slices, 5);
}

TEST(UnitOptimal, PrefersHeavySlicesUnderPressure) {
  // One step, B=2, R=1: at most 3 slices survive; it must keep the 3
  // heaviest of the 5 offered.
  const Stream s = stream_of({units(0, 2, 1.0), units(0, 3, 10.0)});
  const auto result = unit_optimal(s, 2, 1);
  EXPECT_DOUBLE_EQ(result.benefit, 30.0);
  EXPECT_EQ(result.accepted_per_run[0], 0);
  EXPECT_EQ(result.accepted_per_run[1], 3);
}

TEST(UnitOptimal, AcceptedSetIsFeasible) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Stream s =
        analysis::random_unit_stream(rng, 20, 8, 10.0);
    const Bytes buffer = rng.uniform_int(1, 10);
    const Bytes rate = rng.uniform_int(1, 4);
    const auto result = unit_optimal(s, buffer, rate);
    ByteArrivals accepted;
    for (std::size_t i = 0; i < s.run_count(); ++i) {
      const std::int64_t take = result.accepted_per_run[i];
      if (take == 0) continue;
      const Time t = s.runs()[i].arrival;
      if (!accepted.empty() && accepted.back().first == t) {
        accepted.back().second += take;
      } else {
        accepted.emplace_back(t, take);
      }
    }
    EXPECT_TRUE(feasible(accepted, buffer, rate)) << "trial " << trial;
  }
}

TEST(UnitOptimal, MatchesBruteForceOnRandomSmallInstances) {
  Rng rng(6);
  for (int trial = 0; trial < 120; ++trial) {
    const Stream s = analysis::random_unit_stream(rng, 6, 3, 8.0);
    if (s.total_slices() > 14) continue;
    const Bytes buffer = rng.uniform_int(1, 6);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto fast = unit_optimal(s, buffer, rate);
    const Weight oracle = brute_force_optimal(s, buffer, rate);
    EXPECT_NEAR(fast.benefit, oracle, 1e-9) << "trial " << trial;
  }
}

TEST(UnitOptimal, SingleRunAtTimeZero) {
  // B + R = 3 of the 5 slices fit through the first slot.
  const Stream s = stream_of({units(0, 5, 2.0)});
  const auto result = unit_optimal(s, /*buffer=*/2, /*rate=*/1);
  EXPECT_DOUBLE_EQ(result.benefit, 6.0);
  EXPECT_EQ(result.accepted_per_run[0], 3);
}

TEST(UnitOptimal, HorizonAtAndAroundPowersOfTwo) {
  // The solver's tree has horizon + 1 leaves: a horizon of 2^k leaves the
  // last arrival's successor alone in a padded subtree, and 2^k - 1 fills
  // the leaves exactly. A burst on the last step exercises both edges.
  Rng rng(12);
  for (const Time horizon : {7, 8, 16}) {
    std::vector<SliceRun> runs;
    for (Time t = 0; t < horizon; ++t) {
      runs.push_back(units(t, rng.uniform_int(1, 4),
                           static_cast<Weight>(rng.uniform_int(1, 9))));
    }
    runs.push_back(units(horizon - 1, 6, 20.0));
    const Stream s = stream_of(runs);
    ASSERT_EQ(s.horizon(), horizon);
    for (const Bytes buffer : {1, 3, 6}) {
      const auto greedy = unit_optimal(s, buffer, 2);
      const auto dp = pareto_dp_optimal(s, buffer, 2);
      EXPECT_NEAR(greedy.benefit, dp.benefit, 1e-9)
          << "horizon=" << horizon << " buffer=" << buffer;
    }
  }
}

TEST(UnitOptimal, LateFirstArrival) {
  // Nothing arrives before t = 100: the idle prefix only drains.
  const Stream s = stream_of({units(100, 4, 1.0), units(100, 3, 5.0),
                              units(101, 4, 3.0), units(103, 2, 2.0)});
  for (const Bytes buffer : {1, 2, 5}) {
    const auto greedy = unit_optimal(s, buffer, 1);
    const auto dp = pareto_dp_optimal(s, buffer, 1);
    EXPECT_NEAR(greedy.benefit, dp.benefit, 1e-9) << "buffer=" << buffer;
  }
  // B = 2, R = 1: the three heavy slices of t = 100 fill slot 100 and the
  // buffer; t = 101 gets one slot's worth, t = 103 both of its slices.
  const auto result = unit_optimal(s, 2, 1);
  EXPECT_EQ(result.accepted_per_run[0], 0);
  EXPECT_EQ(result.accepted_per_run[1], 3);
  EXPECT_EQ(result.accepted_per_run[2], 1);
  EXPECT_EQ(result.accepted_per_run[3], 2);
}

TEST(UnitOptimal, BothSidesOfThePathChoiceMatchTheReference) {
  // 200 runs over 100 steps: 200 * bit_width(101) / 101 + 1 = 14 classes
  // take the per-class passes, 15 walk the tree. Each side must return the
  // reference's OfflineResult field by field.
  constexpr Time kSteps = 100;
  constexpr std::size_t kRuns = 200;
  const std::size_t limit = offline::class_pass_limit(kRuns, kSteps);
  ASSERT_EQ(limit, 14u);
  Rng rng(21);
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}, limit,
                                    limit + 1, std::size_t{40}}) {
    std::vector<SliceRun> runs;
    // Runs at both ends pin the horizon; the rest arrive anywhere.
    runs.push_back(units(0, 5, 0.0));
    runs.push_back(units(kSteps - 1, 5, 0.0));
    for (std::size_t i = 2; i < kRuns; ++i) {
      runs.push_back(units(rng.uniform_int(0, kSteps - 1),
                           rng.uniform_int(1, 20),
                           static_cast<Weight>(i % classes)));
    }
    const Stream s = stream_of(runs);
    ASSERT_EQ(s.horizon(), kSteps);
    for (const Bytes buffer : {1, 7, 40}) {
      for (const Bytes rate : {1, 5, 12}) {
        const auto fast = unit_optimal(s, buffer, rate);
        const auto ref = refoffline::unit_optimal(s, buffer, rate);
        EXPECT_EQ(fast.benefit, ref.benefit) << classes << " classes";
        EXPECT_EQ(fast.accepted_bytes, ref.accepted_bytes);
        EXPECT_EQ(fast.accepted_slices, ref.accepted_slices);
        EXPECT_EQ(fast.accepted_per_run, ref.accepted_per_run)
            << classes << " classes, B=" << buffer << " R=" << rate;
      }
    }
  }
}

TEST(UnitOptimal, EmptyStream) {
  const Stream s;
  EXPECT_DOUBLE_EQ(unit_optimal(s, 5, 1).benefit, 0.0);
}

// --------------------------------------------------------------- Pareto DP

TEST(ParetoDp, WholeFramesUnderPressure) {
  // Two frames of 4 bytes each at t=0,1 with B=4, R=2: keeping both is
  // infeasible (after step 1 occupancy would be 4+4-2-2 = 4 > ... check:
  // keep both: Q(0)=2, Q(1)=4 <= B! So both fit). Use B=3 to force a choice.
  const Stream s = stream_of({slice(0, 4, 10.0), slice(1, 4, 12.0)});
  const auto both = pareto_dp_optimal(s, 4, 2);
  EXPECT_DOUBLE_EQ(both.benefit, 22.0);
  const auto pressured = pareto_dp_optimal(s, 3, 2);
  EXPECT_DOUBLE_EQ(pressured.benefit, 12.0);  // keep the heavier frame
}

TEST(ParetoDp, MatchesBruteForceOnRandomVariableInstances) {
  Rng rng(8);
  for (int trial = 0; trial < 120; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 6, 2, 6.0, /*max_slice=*/4);
    if (s.total_slices() > 12) continue;
    const Bytes buffer = rng.uniform_int(4, 12);
    const Bytes rate = rng.uniform_int(1, 4);
    const auto dp = pareto_dp_optimal(s, buffer, rate);
    const Weight oracle = brute_force_optimal(s, buffer, rate);
    EXPECT_NEAR(dp.benefit, oracle, 1e-9) << "trial " << trial;
  }
}

TEST(ParetoDp, AgreesWithUnitOptimalOnUnitStreams) {
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const Stream s = analysis::random_unit_stream(rng, 10, 5, 9.0);
    const Bytes buffer = rng.uniform_int(1, 8);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto dp = pareto_dp_optimal(s, buffer, rate);
    const auto greedy = unit_optimal(s, buffer, rate);
    EXPECT_NEAR(dp.benefit, greedy.benefit, 1e-9) << "trial " << trial;
  }
}

TEST(ParetoDp, EmptyStream) {
  const Stream s;
  EXPECT_DOUBLE_EQ(pareto_dp_optimal(s, 5, 1).benefit, 0.0);
}

// ------------------------------------------------------- quantized bracket

TEST(QuantizedBracket, QuantumOneIsExact) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 8, 2, 7.0, /*max_slice=*/4);
    const Bytes buffer = rng.uniform_int(4, 10);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto exact = offline::pareto_dp_optimal(s, buffer, rate);
    const auto bracket =
        offline::quantized_optimal_bracket(s, buffer, rate, 1);
    EXPECT_NEAR(bracket.lower, exact.benefit, 1e-9) << trial;
    EXPECT_NEAR(bracket.upper, exact.benefit, 1e-9) << trial;
  }
}

TEST(QuantizedBracket, SandwichesTheExactOptimum) {
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 10, 2, 7.0, /*max_slice=*/9);
    const Bytes buffer = rng.uniform_int(9, 24);
    const Bytes rate = rng.uniform_int(3, 6);
    const auto exact = offline::pareto_dp_optimal(s, buffer, rate);
    for (Bytes quantum : {2, 3}) {
      const auto bracket =
          offline::quantized_optimal_bracket(s, buffer, rate, quantum);
      EXPECT_LE(bracket.lower, exact.benefit + 1e-9)
          << trial << " q=" << quantum;
      EXPECT_GE(bracket.upper, exact.benefit - 1e-9)
          << trial << " q=" << quantum;
    }
  }
}

TEST(QuantizedBracket, TightensAsQuantumShrinks) {
  Rng rng(23);
  const Stream s =
      analysis::random_variable_stream(rng, 20, 3, 7.0, /*max_slice=*/16);
  const Bytes buffer = 48;
  const Bytes rate = 8;
  const auto coarse = offline::quantized_optimal_bracket(s, buffer, rate, 8);
  const auto fine = offline::quantized_optimal_bracket(s, buffer, rate, 1);
  // Quantum 1 collapses the bracket to the exact optimum; the coarse
  // bracket must contain it.
  EXPECT_NEAR(fine.upper - fine.lower, 0.0, 1e-9);
  EXPECT_LE(coarse.lower, fine.lower + 1e-9);
  EXPECT_GE(coarse.upper, fine.upper - 1e-9);
}

// Fig. 5's own whole-frame instance at full size: the 1200-frame cnn-news
// clip, R = the average rate, B = `multiple` largest frames, and the quantum
// fig5 brackets with. The exact DP keeps every state (at most B + R + 1 of
// them), and its answer must lie inside the bracket fig5 prints.
void expect_fig5_optimum_inside_bracket(Bytes multiple) {
  const trace::FrameSequence clip = trace::stock_clip("cnn-news", 1200);
  const auto slice = [&clip](trace::Slicing slicing) {
    return trace::slice_frames(clip, trace::ValueModel::mpeg_default(),
                               slicing);
  };
  const Stream bytes = slice(trace::Slicing::ByteSlices);
  const Stream frames = slice(trace::Slicing::WholeFrame);
  const Plan plan = Planner::from_buffer_rate(
      multiple * bytes.max_frame_bytes(), sim::relative_rate(bytes, 1.0));
  const Bytes quantum = std::max<Bytes>(256, plan.buffer / 8192);
  const auto exact = pareto_dp_optimal(frames, plan.buffer, plan.rate);
  const auto bracket = offline::quantized_optimal_bracket(
      frames, plan.buffer, plan.rate, quantum);
  EXPECT_LE(bracket.lower, exact.benefit) << "m=" << multiple;
  EXPECT_LE(exact.benefit, bracket.upper) << "m=" << multiple;
  EXPECT_LE(exact.peak_states,
            static_cast<std::size_t>(plan.buffer + plan.rate + 1));
}

TEST(QuantizedBracket, HoldsTheExactOptimumOnFig5AtOneFrame) {
  expect_fig5_optimum_inside_bracket(1);
}

// Seconds each (1.4M and 3.2M states); the nightly job runs them.
TEST(QuantizedBracket, DISABLED_HoldsTheExactOptimumOnFig5AtLargeBuffers) {
  for (const Bytes multiple : {11, 26}) {
    expect_fig5_optimum_inside_bracket(multiple);
  }
}

// ------------------------------------------------------------- brute force

TEST(BruteForce, TinyKnownInstance) {
  // B=1, R=1, three unit slices at t=0 with weights 3,2,1: two can survive
  // (send one, buffer one).
  const Stream s =
      stream_of({units(0, 1, 3.0), units(0, 1, 2.0), units(0, 1, 1.0)});
  EXPECT_DOUBLE_EQ(brute_force_optimal(s, 1, 1), 5.0);
}

using OfflineDeathTest = ::testing::Test;

TEST(OfflineDeathTest, BruteForceRefusesLargeInstances) {
  const Stream s = stream_of({units(0, 64)});
  EXPECT_DEATH(brute_force_optimal(s, 4, 1), "precondition");
}

TEST(OfflineDeathTest, UnitOptimalRequiresUnitSlices) {
  const Stream s = stream_of({slice(0, 3)});
  EXPECT_DEATH(unit_optimal(s, 4, 1), "precondition");
}

}  // namespace
}  // namespace rtsmooth

// Unit tests for the metrics types: Tally arithmetic, SimReport derived
// measures, conservation checking and aggregation — including on reports
// produced by real faulty-link runs, where conservation must absorb the
// lost-in-link and retransmission flows.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/metrics.h"
#include "core/planner.h"
#include "faults/fault_schedule.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

TEST(Tally, AddAndCombine) {
  Tally a;
  a.add(10, 2.5, 3);
  a.add(5, 0.5, 1);
  EXPECT_EQ(a.bytes, 15);
  EXPECT_DOUBLE_EQ(a.weight, 3.0);
  EXPECT_EQ(a.slices, 4);
  Tally b;
  b.add(1, 1.0, 1);
  b += a;
  EXPECT_EQ(b.bytes, 16);
  EXPECT_EQ(b.slices, 5);
}

TEST(SimReport, LossAndBenefitFractions) {
  SimReport r;
  r.offered.add(100, 200.0, 100);
  r.played.add(80, 150.0, 80);
  r.dropped_server.add(20, 50.0, 20);
  EXPECT_DOUBLE_EQ(r.weighted_loss(), 0.25);
  EXPECT_DOUBLE_EQ(r.benefit_fraction(), 0.75);
  EXPECT_DOUBLE_EQ(r.byte_loss(), 0.2);
  EXPECT_EQ(r.throughput(), 80);
  EXPECT_DOUBLE_EQ(r.benefit(), 150.0);
}

TEST(SimReport, EmptyReportIsNeutral) {
  const SimReport r;
  EXPECT_DOUBLE_EQ(r.weighted_loss(), 0.0);
  EXPECT_DOUBLE_EQ(r.benefit_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(r.byte_loss(), 0.0);
  EXPECT_TRUE(r.conserves());
}

TEST(SimReport, ConservationDetectsMismatch) {
  SimReport r;
  r.offered.add(10, 10.0, 10);
  r.played.add(6, 6.0, 6);
  EXPECT_FALSE(r.conserves());
  r.dropped_server.add(4, 4.0, 4);
  EXPECT_TRUE(r.conserves());
  r.residual.add(0, 0.0, 1);  // slice count off by one
  EXPECT_FALSE(r.conserves());
}

TEST(SimReport, AggregationSumsAndMaxes) {
  SimReport a;
  a.offered.add(10, 10.0, 10);
  a.played.add(10, 10.0, 10);
  a.max_server_occupancy = 7;
  a.steps = 5;
  SimReport b;
  b.offered.add(20, 20.0, 20);
  b.played.add(15, 15.0, 15);
  b.dropped_server.add(5, 5.0, 5);
  b.max_server_occupancy = 3;
  b.steps = 9;
  a += b;
  EXPECT_EQ(a.offered.bytes, 30);
  EXPECT_EQ(a.played.bytes, 25);
  EXPECT_EQ(a.max_server_occupancy, 7);  // max, not sum
  EXPECT_EQ(a.steps, 14);
  EXPECT_TRUE(a.conserves());
}

TEST(SimReport, StreamInsertionMentionsKeyFigures) {
  SimReport r;
  r.offered.add(100, 100.0, 100);
  r.played.add(50, 50.0, 50);
  r.dropped_server.add(50, 50.0, 50);
  std::ostringstream os;
  os << r;
  const std::string text = os.str();
  EXPECT_NE(text.find("offered 100"), std::string::npos);
  EXPECT_NE(text.find("weighted loss 50"), std::string::npos);
}

TEST(SimReport, PerTypeArraysIndexByFrameType) {
  SimReport r;
  r.offered_by_type[static_cast<std::size_t>(FrameType::I)].add(12, 144.0, 1);
  r.offered_by_type[static_cast<std::size_t>(FrameType::B)].add(1, 1.0, 1);
  EXPECT_EQ(r.offered_by_type[0].bytes, 12);  // I
  EXPECT_EQ(r.offered_by_type[2].bytes, 1);   // B
}

// ------------------------------------------------ faulty-link run reports

SimReport faulty_report(double erasure, bool recovery) {
  const Stream s = trace::slice_frames(
      trace::stock_clip("cnn-news", 150), trace::ValueModel::mpeg_default(),
      trace::Slicing::WholeFrame);
  const Plan plan = Planner::from_buffer_rate(
      4 * s.max_frame_bytes(), sim::relative_rate(s, 1.1));
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  if (recovery) config.recovery = RecoveryConfig{.enabled = true};
  return sim::simulate(
      s, config, "greedy",
      std::make_unique<faults::ScheduledFaultLink>(
          1, std::vector<faults::FaultPhase>{{.loss_probability = erasure}},
          Rng(77)));
}

TEST(SimReport, ConservesAcrossFaultyLinkRuns) {
  // Erased bytes flow into lost_link (no recovery) or come back as
  // retransmissions (recovery on); the conservation identity must hold in
  // both regimes, not just on clean links.
  const SimReport plain = faulty_report(0.1, /*recovery=*/false);
  EXPECT_TRUE(plain.conserves());
  EXPECT_GT(plain.lost_link.bytes, 0);
  const SimReport recovered = faulty_report(0.1, /*recovery=*/true);
  EXPECT_TRUE(recovered.conserves());
  EXPECT_GT(recovered.retransmitted_bytes, 0);
  EXPECT_GT(recovered.played.bytes, plain.played.bytes);
}

TEST(SimReport, StreamInsertionCoversFaultFigures) {
  // The printed summary must surface the fault-path tallies, not just the
  // clean-run figures: link losses without recovery, retransmissions with.
  std::ostringstream plain;
  plain << faulty_report(0.15, /*recovery=*/false);
  EXPECT_NE(plain.str().find("offered"), std::string::npos);
  EXPECT_NE(plain.str().find("link-lost"), std::string::npos) << plain.str();
  std::ostringstream recovered;
  recovered << faulty_report(0.15, /*recovery=*/true);
  EXPECT_NE(recovered.str().find("retx"), std::string::npos)
      << recovered.str();
}

}  // namespace
}  // namespace rtsmooth

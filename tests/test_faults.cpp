// Tests for the fault-injection links and the recovery path (the Sect. 6
// open problems made concrete): zero-fault identity against the paper's
// constant-delay link, NACK feedback timing, the fault program's phases
// (loss and cap switching at phase starts, the period's wrap, the loss-run
// histogram, advance_to reaching the inner link), deadline-aware
// retransmission, the two client degradation modes, and the Lemma 3.2-3.4
// invariant monitor.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/link.h"
#include "core/planner.h"
#include "faults/fault_links.h"
#include "faults/fault_schedule.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stream_helpers.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

using faults::FaultPhase;
using faults::GilbertElliottConfig;
using faults::GilbertElliottLink;
using faults::ScheduledFaultLink;
using sim::SimConfig;
using sim::SmoothingSimulator;
using testing::slice;
using testing::stream_of;
using testing::units;

Stream clip_stream() {
  return trace::slice_frames(trace::stock_clip("cnn-news", 150),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

Plan clip_plan(const Stream& s) {
  return Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                   sim::relative_rate(s, 0.95));
}

SimReport run_link(const Stream& s, const SimConfig& config,
                   std::unique_ptr<Link> link) {
  SmoothingSimulator simulator(s, config, make_policy("greedy"),
                               std::move(link));
  return simulator.run();
}

/// The one-phase fault programs that stand for a constant i.i.d. erasure
/// and a constant rate cap.
std::vector<FaultPhase> constant_loss(double p) {
  return {{.loss_probability = p}};
}
std::vector<FaultPhase> constant_cap(Bytes cap) {
  return {{.rate_cap = cap}};
}

std::vector<SentPiece> piece_of(const Stream& s, std::size_t run_index,
                                Bytes bytes) {
  return {SentPiece{.run = &s.runs()[run_index],
                    .run_index = run_index,
                    .bytes = bytes,
                    .completed_slices = bytes}};
}

// ------------------------------------------------- zero-fault identity

// At severity zero every fault link must be indistinguishable from the
// paper's FixedDelayLink — pinned as exact SimReport equality, every field.

TEST(FaultIdentity, ErasureAtZeroProbabilityIsByteIdentical) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  const SimReport baseline = sim::simulate(s, plan, "greedy");
  const SimReport faulty =
      run_link(s, SimConfig::balanced(plan),
               std::make_unique<ScheduledFaultLink>(
                   /*propagation_delay=*/1, constant_loss(0.0), Rng(7)));
  EXPECT_EQ(faulty, baseline);
}

TEST(FaultIdentity, AlwaysGoodGilbertElliottIsByteIdentical) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  const SimReport baseline = sim::simulate(s, plan, "greedy");
  const SimReport faulty = run_link(
      s, SimConfig::balanced(plan),
      std::make_unique<GilbertElliottLink>(
          /*propagation_delay=*/1,
          GilbertElliottConfig{.p_good_to_bad = 0.0, .p_bad_to_good = 1.0},
          Rng(7)));
  EXPECT_EQ(faulty, baseline);
}

TEST(FaultIdentity, ThrottleAtFullRateIsByteIdentical) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  const SimReport baseline = sim::simulate(s, plan, "greedy");
  const SimReport faulty =
      run_link(s, SimConfig::balanced(plan),
               std::make_unique<ScheduledFaultLink>(
                   /*propagation_delay=*/1, constant_cap(plan.rate), Rng()));
  EXPECT_EQ(faulty, baseline);
}

// ------------------------------------------------------ link unit tests

TEST(ErasureLinkUnit, CertainLossNacksExactlyOnceAfterRoundTrip) {
  const Stream s = stream_of({units(0, 10)});
  ScheduledFaultLink link(/*propagation_delay=*/1, constant_loss(1.0), Rng(3));
  link.submit(0, piece_of(s, 0, 4));
  EXPECT_FALSE(link.idle());  // the pending NACK keeps the link busy
  EXPECT_TRUE(link.deliver(1).empty());
  EXPECT_TRUE(link.collect_nacks(0).empty());
  EXPECT_TRUE(link.collect_nacks(1).empty());
  // Default feedback delay is one propagation delay: loss knowable at t+P,
  // report back at t + 2P = 2.
  const auto nacks = link.collect_nacks(2);
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0].piece.bytes, 4);
  EXPECT_EQ(nacks[0].piece.retx_attempt, 0);
  EXPECT_EQ(nacks[0].sent_at, 0);
  EXPECT_TRUE(link.idle());
  EXPECT_TRUE(link.collect_nacks(3).empty());  // exactly once
}

TEST(ErasureLinkUnit, ExplicitFeedbackDelayShiftsTheNack) {
  const Stream s = stream_of({units(0, 10)});
  ScheduledFaultLink link(/*propagation_delay=*/2, constant_loss(1.0), Rng(3),
                          /*feedback_delay=*/5);
  link.submit(1, piece_of(s, 0, 2));
  EXPECT_TRUE(link.collect_nacks(7).empty());
  EXPECT_EQ(link.collect_nacks(8).size(), 1u);  // 1 + 2 + 5
}

TEST(GilbertElliottUnit, DeterministicChainStartsGoodThenGoesBad) {
  const Stream s = stream_of({units(0, 10)});
  // p_good_to_bad = 1 flips at the first advance; p_bad_to_good = 0 pins it.
  GilbertElliottLink link(
      /*propagation_delay=*/1,
      GilbertElliottConfig{.p_good_to_bad = 1.0, .p_bad_to_good = 0.0},
      Rng(11));
  link.submit(0, piece_of(s, 0, 3));  // step 0 is Good by convention
  EXPECT_FALSE(link.in_bad_state());
  EXPECT_EQ(link.deliver(1).size(), 1u);
  link.submit(1, piece_of(s, 0, 3));  // chain flipped at step 1
  EXPECT_TRUE(link.in_bad_state());
  EXPECT_TRUE(link.deliver(2).empty());
  EXPECT_EQ(link.collect_nacks(3).size(), 1u);  // lost copy NACKed at 1+1+1
  EXPECT_TRUE(link.idle());
}

TEST(GilbertElliottUnit, ChainAdvancesWhileIdle) {
  const Stream s = stream_of({units(0, 10)});
  GilbertElliottLink link(
      /*propagation_delay=*/1,
      GilbertElliottConfig{.p_good_to_bad = 1.0, .p_bad_to_good = 0.0},
      Rng(11));
  // No traffic until step 5; the chain must have churned regardless.
  EXPECT_TRUE(link.deliver(5).empty());
  EXPECT_TRUE(link.in_bad_state());
}

TEST(ThrottledLinkUnit, SplitsAtTheCapAndPreservesBytesFifo) {
  const Stream s = stream_of({slice(0, 5)});
  ScheduledFaultLink link(/*propagation_delay=*/0, constant_cap(2), Rng());
  link.submit(0, piece_of(s, 0, 5));
  Bytes total = 0;
  std::int64_t completed = 0;
  std::vector<Bytes> per_step;
  for (Time t = 0; t < 4; ++t) {
    Bytes step_bytes = 0;
    for (const auto& piece : link.deliver(t)) {
      step_bytes += piece.bytes;
      completed += piece.completed_slices;
    }
    per_step.push_back(step_bytes);
    total += step_bytes;
  }
  EXPECT_EQ(per_step, (std::vector<Bytes>{2, 2, 1, 0}));
  EXPECT_EQ(total, 5);
  // Slice completions ride with the tail fragment only — no double count.
  EXPECT_EQ(completed, 5);
  EXPECT_TRUE(link.idle());
}

TEST(ThrottledLinkUnit, ZeroEntriesStallThenDrain) {
  const Stream s = stream_of({units(0, 10)});
  // The cap pattern {0, 0, 3} as a program: a stall, then 3 from step 2.
  ScheduledFaultLink link(std::make_unique<FixedDelayLink>(0),
                          {{.rate_cap = 0}, {.from = 2, .rate_cap = 3}},
                          Rng(), /*feedback_delay=*/-1, /*period=*/3);
  link.submit(0, piece_of(s, 0, 6));
  EXPECT_TRUE(link.deliver(0).empty());
  EXPECT_TRUE(link.deliver(1).empty());
  EXPECT_EQ(link.deliver(2).at(0).bytes, 3);  // pattern index 2
  EXPECT_TRUE(link.deliver(3).empty());       // wrapped to index 0
  EXPECT_TRUE(link.deliver(4).empty());
  EXPECT_EQ(link.deliver(5).at(0).bytes, 3);
  EXPECT_TRUE(link.idle());
}

// ------------------------------------------- the fault program's phases

/// Bytes delivered at each step of [0, steps) after `submit` fed the link.
std::vector<Bytes> bytes_per_step(ScheduledFaultLink& link, Time steps) {
  std::vector<Bytes> out;
  for (Time t = 0; t < steps; ++t) {
    Bytes bytes = 0;
    for (const SentPiece& piece : link.deliver(t)) bytes += piece.bytes;
    out.push_back(bytes);
  }
  return out;
}

TEST(ScheduledFaultLinkUnit, LossPhaseSwitchesExactlyAtItsStart) {
  const Stream s = stream_of({units(0, 20)});
  // Loss 1.0 through step 4, loss 0 from step 5: every piece sent before
  // the switch is NACKed and every piece sent from it on is delivered.
  ScheduledFaultLink link(/*propagation_delay=*/1,
                          {{.loss_probability = 1.0}, {.from = 5}}, Rng(5));
  std::vector<std::size_t> delivered;
  std::vector<Time> nacked_sends;
  for (Time t = 0; t < 12; ++t) {
    for (const Nack& nack : link.collect_nacks(t)) {
      EXPECT_EQ(t, nack.sent_at + 2);  // one delay out, one back
      nacked_sends.push_back(nack.sent_at);
    }
    if (t < 10) link.submit(t, piece_of(s, 0, 1));
    delivered.push_back(link.deliver(t).size());
  }
  EXPECT_EQ(nacked_sends, (std::vector<Time>{0, 1, 2, 3, 4}));
  EXPECT_EQ(delivered,
            (std::vector<std::size_t>{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0}));
  EXPECT_TRUE(link.idle());
}

TEST(ScheduledFaultLinkUnit, CapPhaseSplitsPiecesAtTheCap) {
  const Stream s = stream_of({slice(0, 7), slice(2, 7)});
  // Uncapped at steps 0-1, 3 bytes per step from step 2 on.
  ScheduledFaultLink link(/*propagation_delay=*/0,
                          {{}, {.from = 2, .rate_cap = 3}}, Rng());
  obs::Registry registry;
  link.set_telemetry(obs::Telemetry{.registry = &registry});
  link.submit(0, piece_of(s, 0, 7));
  std::vector<SentPiece> whole = link.deliver(0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].bytes, 7);
  (void)link.deliver(1);
  link.submit(2, piece_of(s, 1, 7));
  std::vector<Bytes> fragments;
  std::int64_t completed = 0;
  for (Time t = 2; t < 6; ++t) {
    for (const SentPiece& piece : link.deliver(t)) {
      fragments.push_back(piece.bytes);
      completed += piece.completed_slices;
    }
  }
  EXPECT_EQ(fragments, (std::vector<Bytes>{3, 3, 1}));
  EXPECT_EQ(completed, 7);  // on the tail fragment only
  EXPECT_EQ(registry.counter("link.split_pieces").value(), 2);
  EXPECT_EQ(registry.gauge("link.max_backlog").value(), 7);
  EXPECT_TRUE(link.idle());
}

TEST(ScheduledFaultLinkUnit, PeriodWrapsThePhaseLookup) {
  const std::vector<FaultPhase> program = {
      {}, {.from = 3, .loss_probability = 0.5, .rate_cap = 10}};
  ScheduledFaultLink cyclic(/*propagation_delay=*/1, program, Rng(),
                            /*feedback_delay=*/-1, /*period=*/5);
  ScheduledFaultLink once(/*propagation_delay=*/1, program, Rng());
  for (const Time t : {0, 1, 2, 5, 6, 7, 10, 102}) {
    EXPECT_EQ(cyclic.phase_at(t).from, 0) << "t=" << t;
  }
  for (const Time t : {3, 4, 8, 9, 13, 104}) {
    EXPECT_EQ(cyclic.phase_at(t).from, 3) << "t=" << t;
  }
  EXPECT_EQ(once.phase_at(2).from, 0);
  for (const Time t : {3, 5, 10, 102}) {
    EXPECT_EQ(once.phase_at(t).from, 3) << "t=" << t;
  }

  // The wrap reaches deliver(): a 2-byte cap from step 1 of every 3.
  const Stream s = stream_of({slice(0, 6)});
  ScheduledFaultLink link(std::make_unique<FixedDelayLink>(0),
                          {{.rate_cap = 0}, {.from = 1, .rate_cap = 2}},
                          Rng(), /*feedback_delay=*/-1, /*period=*/3);
  link.submit(0, piece_of(s, 0, 6));
  EXPECT_EQ(bytes_per_step(link, 6), (std::vector<Bytes>{0, 2, 2, 0, 2, 0}));
}

TEST(ScheduledFaultLinkUnit, ErasedPiecesNeverQueueAtTheCap) {
  const Stream s = stream_of({slice(0, 10)});
  // Certain loss under a 2-byte cap: the piece is NACKed at once and never
  // waits behind the cap, so the backlog stays empty and nothing splits.
  ScheduledFaultLink link(/*propagation_delay=*/1,
                          {{.loss_probability = 1.0, .rate_cap = 2}}, Rng(9));
  obs::Registry registry;
  link.set_telemetry(obs::Telemetry{.registry = &registry});
  link.submit(0, piece_of(s, 0, 10));
  EXPECT_EQ(link.next_activity(0), 2);  // the NACK, not a cap window
  EXPECT_EQ(bytes_per_step(link, 5), (std::vector<Bytes>{0, 0, 0, 0, 0}));
  EXPECT_EQ(link.collect_nacks(2).size(), 1u);
  EXPECT_TRUE(link.idle());
  EXPECT_EQ(registry.gauge("link.max_backlog").value(), 0);
  EXPECT_EQ(registry.counter("link.split_pieces").value(), 0);
  EXPECT_EQ(registry.counter("link.erased_bytes").value(), 10);
}

TEST(ScheduledFaultLinkUnit, LossRunHistogramOnlyAfterACompletedRun) {
  const Stream s = stream_of({units(0, 20)});
  // A clean program registers its four instruments but no loss-run
  // histogram.
  {
    obs::Registry registry;
    ScheduledFaultLink link(/*propagation_delay=*/1, {{}}, Rng());
    link.set_telemetry(obs::Telemetry{.registry = &registry});
    for (Time t = 0; t < 5; ++t) {
      link.submit(t, piece_of(s, 0, 1));
      (void)link.deliver(t);
    }
    EXPECT_TRUE(registry.counters().contains("link.erased_pieces"));
    EXPECT_FALSE(registry.histograms().contains("link.loss_run"));
  }
  // Runs of 3 and 2 erased pieces, each ended by a survivor, then a run
  // still open at the end, which has no defined length.
  obs::Registry registry;
  ScheduledFaultLink link(/*propagation_delay=*/1,
                          {{.loss_probability = 1.0},
                           {.from = 3},
                           {.from = 4, .loss_probability = 1.0},
                           {.from = 6},
                           {.from = 7, .loss_probability = 1.0}},
                          Rng(13));
  link.set_telemetry(obs::Telemetry{.registry = &registry});
  for (Time t = 0; t < 9; ++t) {
    link.submit(t, piece_of(s, 0, 1));
    (void)link.deliver(t);
    if (t < 3) {
      EXPECT_FALSE(registry.histograms().contains("link.loss_run"));
    }
  }
  ASSERT_TRUE(registry.histograms().contains("link.loss_run"));
  const obs::Histogram& runs = registry.histograms().at("link.loss_run");
  EXPECT_EQ(runs.count(), 2);
  EXPECT_EQ(runs.sum(), 5);
  EXPECT_EQ(runs.min(), 2);
  EXPECT_EQ(runs.max(), 3);
  EXPECT_EQ(registry.counter("link.erased_pieces").value(), 7);
}

TEST(FaultTelemetry, EachLinkRecordsItsRunsUnderItsOwnName) {
  // The scheduled link counts erased pieces per run ("link.loss_run"), the
  // Gilbert-Elliott chain Bad-state steps per burst
  // ("link.bad_burst_steps"): two units, two names, so a registry folding
  // both links' cells never mixes them.
  const Stream s = stream_of({units(0, 40)});
  obs::Registry ge_registry;
  // Both transitions are certain: Bad on odd steps, one-step bursts.
  GilbertElliottLink chain(
      /*propagation_delay=*/1,
      GilbertElliottConfig{.p_good_to_bad = 1.0, .p_bad_to_good = 1.0},
      Rng(3));
  chain.set_telemetry(obs::Telemetry{.registry = &ge_registry});
  obs::Registry program_registry;
  ScheduledFaultLink program(/*propagation_delay=*/1,
                             {{.loss_probability = 1.0}, {.from = 3}},
                             Rng(3));
  program.set_telemetry(obs::Telemetry{.registry = &program_registry});
  for (Time t = 0; t < 6; ++t) {
    chain.submit(t, piece_of(s, 0, 2));
    (void)chain.deliver(t);
    program.submit(t, piece_of(s, 0, 2));
    (void)program.deliver(t);
  }
  EXPECT_FALSE(ge_registry.histograms().contains("link.loss_run"));
  ASSERT_TRUE(ge_registry.histograms().contains("link.bad_burst_steps"));
  const obs::Histogram& bursts =
      ge_registry.histograms().at("link.bad_burst_steps");
  EXPECT_EQ(bursts.count(), 2);  // Bad at steps 1 and 3, over at 2 and 4
  EXPECT_EQ(bursts.max(), 1);
  EXPECT_FALSE(program_registry.histograms().contains("link.bad_burst_steps"));
  ASSERT_TRUE(program_registry.histograms().contains("link.loss_run"));
  const obs::Histogram& runs =
      program_registry.histograms().at("link.loss_run");
  EXPECT_EQ(runs.count(), 1);  // pieces of steps 0-2, ended by step 3's
  EXPECT_EQ(runs.max(), 3);
}

TEST(ScheduledFaultLinkUnit, AdvanceToReachesAGilbertElliottInnerLink) {
  // A chain that turns Bad at step 1 and stays Bad: only an advance_to
  // forwarded to the inner link can have moved it by the time it returns.
  {
    auto chain = std::make_unique<GilbertElliottLink>(
        /*propagation_delay=*/1,
        GilbertElliottConfig{.p_good_to_bad = 1.0, .p_bad_to_good = 0.0},
        Rng(11));
    const GilbertElliottLink& inner = *chain;
    ScheduledFaultLink link(std::move(chain), {{}}, Rng());
    link.advance_to(5);
    EXPECT_TRUE(inner.in_bad_state());
  }
  // A random chain behind the program, advanced in one batch, then fed
  // alongside a twin polled every step: identical deliveries and NACKs.
  const Stream s = stream_of({units(0, 100)});
  const GilbertElliottConfig ge{.p_good_to_bad = 0.35,
                                .p_bad_to_good = 0.35,
                                .loss_good = 0.0,
                                .loss_bad = 1.0};
  auto wrap = [&ge] {
    return ScheduledFaultLink(
        std::make_unique<GilbertElliottLink>(1, ge, Rng(4242)), {{}}, Rng());
  };
  ScheduledFaultLink polled = wrap();
  ScheduledFaultLink batched = wrap();
  for (Time t = 0; t <= 60; ++t) (void)polled.deliver(t);
  batched.advance_to(60);
  for (Time t = 61; t <= 90; ++t) {
    polled.submit(t, piece_of(s, 0, 1));
    batched.submit(t, piece_of(s, 0, 1));
    ASSERT_EQ(polled.deliver(t).size(), batched.deliver(t).size())
        << "delivery divergence at t=" << t;
    ASSERT_EQ(polled.collect_nacks(t).size(), batched.collect_nacks(t).size())
        << "NACK divergence at t=" << t;
  }
}

// ------------------------------------------------- end-to-end recovery

TEST(Recovery, TotalErasureWithoutRecoveryWritesEverythingOff) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  SimConfig config = SimConfig::balanced(plan);
  const SimReport report = run_link(
      s, config,
      std::make_unique<ScheduledFaultLink>(1, constant_loss(1.0), Rng(17)));
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.played.bytes, 0);
  EXPECT_EQ(report.retransmitted_bytes, 0);
  EXPECT_GT(report.lost_link.bytes, 0);
  // Every byte that entered the link was written off; the rest was dropped
  // at the server by the policy as usual.
  EXPECT_EQ(report.lost_link.bytes + report.dropped_server.bytes,
            report.offered.bytes);
}

TEST(Recovery, TotalErasureWithRecoveryStillTerminatesAndConserves) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  SimConfig config = SimConfig::balanced(plan);
  config.recovery.enabled = true;
  config.recovery.max_retries = 2;
  const SimReport report = run_link(
      s, config,
      std::make_unique<ScheduledFaultLink>(1, constant_loss(1.0), Rng(17)));
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.played.bytes, 0);
  // Retries happened, hit the budget, and everything was written off.
  EXPECT_GT(report.retransmitted_bytes, 0);
  EXPECT_GT(report.lost_link.bytes, 0);
}

TEST(Recovery, RetransmissionRescuesBytesUnderModerateErasure) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  auto erasure = [] {
    return std::make_unique<ScheduledFaultLink>(1, constant_loss(0.3), Rng(23));
  };
  SimConfig off = SimConfig::balanced(plan);
  SimConfig on = off;
  on.recovery.enabled = true;
  const SimReport without = run_link(s, off, erasure());
  const SimReport with = run_link(s, on, erasure());
  EXPECT_TRUE(without.conserves());
  EXPECT_TRUE(with.conserves());
  EXPECT_EQ(without.retransmitted_bytes, 0);
  EXPECT_GT(with.retransmitted_bytes, 0);
  // Recovery turns link write-offs back into playout.
  EXPECT_GT(with.played.bytes, without.played.bytes);
  EXPECT_LT(with.lost_link.bytes, without.lost_link.bytes);
  EXPECT_LT(with.weighted_loss(), without.weighted_loss());
}

TEST(Recovery, ComposesOverAJitteryLink) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  const Time j = 4;
  SimConfig config = SimConfig::balanced(plan);
  config.smoothing_delay += j;  // jitter compensation, as in test_jitter
  config.client_buffer += j * plan.rate;
  config.recovery.enabled = true;
  const SimReport report = run_link(
      s, config,
      std::make_unique<ScheduledFaultLink>(
          std::make_unique<BoundedJitterLink>(1, j, Rng(31)),
          constant_loss(0.1), Rng(32)));
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.played.bytes, 0);
  EXPECT_GT(report.retransmitted_bytes, 0);
}

// --------------------------------------------------- stall vs skip

// One 10-byte slice trickling through a cap-1 throttle: under Skip the
// deadline hits with a partial slice (total loss); under Stall the client
// rebuffers 4 steps and plays everything.
TEST(UnderflowPolicy, StallRebuffersWhereSkipConceals) {
  const Stream s = stream_of({slice(0, 10)});
  const Plan plan = Planner::from_delay_rate(/*delay=*/5, /*rate=*/2);
  auto throttled = [] {
    return std::make_unique<ScheduledFaultLink>(/*propagation_delay=*/1,
                                                constant_cap(1), Rng());
  };
  SimConfig skip = SimConfig::balanced(plan);
  skip.underflow = UnderflowPolicy::Skip;
  SimConfig stall = skip;
  stall.underflow = UnderflowPolicy::Stall;

  const SimReport skipped = run_link(s, skip, throttled());
  EXPECT_TRUE(skipped.conserves());
  EXPECT_EQ(skipped.played.bytes, 0);
  EXPECT_DOUBLE_EQ(skipped.weighted_loss(), 1.0);
  EXPECT_EQ(skipped.stall_steps, 0);
  EXPECT_GT(skipped.invariants.client_underflow, 0);

  const SimReport stalled = run_link(s, stall, throttled());
  EXPECT_TRUE(stalled.conserves());
  EXPECT_EQ(stalled.played.bytes, 10);
  EXPECT_DOUBLE_EQ(stalled.weighted_loss(), 0.0);
  // Due at t = 6 with 6 of 10 bytes stored; the last byte lands at t = 10.
  EXPECT_EQ(stalled.stall_steps, 4);
}

TEST(UnderflowPolicy, MaxStallCapsTheRebuffer) {
  const Stream s = stream_of({slice(0, 10)});
  const Plan plan = Planner::from_delay_rate(5, 2);
  SimConfig config = SimConfig::balanced(plan);
  config.underflow = UnderflowPolicy::Stall;
  config.max_stall = 2;  // not enough: needs 4
  const SimReport report =
      run_link(s, config,
               std::make_unique<ScheduledFaultLink>(1, constant_cap(1), Rng()));
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.played.bytes, 0);  // gave up after 2 stalls, then skipped
  EXPECT_EQ(report.stall_steps, 2);
}

TEST(UnderflowPolicy, StallNeverTriggersOnServerIntentionalDrops) {
  // Whole slices the *server* dropped (Eq. (3)) leave no partial at the
  // client; Stall must not rebuffer for them — identical to Skip.
  const Stream s = clip_stream();  // unit slices: partials are impossible
  const Plan plan = clip_plan(s);
  SimConfig config = SimConfig::balanced(plan);
  config.underflow = UnderflowPolicy::Stall;
  SmoothingSimulator simulator(s, config, make_policy("greedy"));
  const SimReport stalling = simulator.run();
  const SimReport baseline = sim::simulate(s, plan, "greedy");
  EXPECT_EQ(stalling.stall_steps, 0);
  EXPECT_EQ(stalling, baseline);
}

// ------------------------------------------------- invariant monitor

TEST(InvariantMonitor, LosslessRunRecordsNoViolations) {
  const Stream s = clip_stream();
  const SimReport report = sim::simulate(s, clip_plan(s), "greedy");
  EXPECT_FALSE(report.invariants.any());
  EXPECT_EQ(report.invariants.first, kNever);
}

TEST(InvariantMonitor, ThrottledLinkViolatesClientUnderflow) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  // Half the needed rate: deliveries pile up behind the throttle and miss
  // their deadlines — exactly the Lemma 3.3 failure the monitor watches.
  const SimReport report =
      run_link(s, SimConfig::balanced(plan),
               std::make_unique<ScheduledFaultLink>(
                   1, constant_cap(std::max<Bytes>(1, plan.rate / 2)), Rng()));
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.invariants.client_underflow, 0);
  EXPECT_LT(report.invariants.first, report.steps);
}

// --------------------------------------------------------- fault sweep

TEST(FaultSweep, SeverityZeroMatchesBaselineAndLossIsMonotone) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  const auto points =
      sim::sweep(s, sim::SweepSpec{
                        .axis = sim::SweepAxis::FaultSeverity,
                        .values = {0.0, 0.1, 0.3},
                        .policies = {"greedy"},
                        .plan = plan,
                        .link_factory =
                            [](double severity,
                               Time link_delay) -> std::unique_ptr<Link> {
                          return std::make_unique<ScheduledFaultLink>(
                              link_delay, constant_loss(severity), Rng(41));
                        }})
          .faults;
  ASSERT_EQ(points.size(), 3u);
  const SimReport baseline = sim::simulate(s, plan, "greedy");
  EXPECT_EQ(points[0].skip, baseline);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].skip.weighted_loss(),
              points[i - 1].skip.weighted_loss());
    EXPECT_GE(points[i].stall.weighted_loss(),
              points[i - 1].stall.weighted_loss());
  }
}

}  // namespace
}  // namespace rtsmooth

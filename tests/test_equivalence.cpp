// Differential equivalence suite, three ways: the deque-based reference
// oracle in reference_core.h vs the optimized production simulator (ring
// buffers, recycled piece vectors, monotone playout cursor — DESIGN.md
// Sect. 12), run once stepping every slot and once skipping quiescent
// spans (DESIGN.md Sect. 17).
//
// Every comparison goes through tests/differential.h, which checks the
// SimReport, the JSONL trace, and — between the two production legs — the
// Registry snapshot and FlightRecorder incident list byte-for-byte.
// Failures name the disagreeing pair and print a self-contained
// reproducer (seed, expanded SliceRuns, SimConfig) via
// testgen::describe_instance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "differential.h"
#include "faults/fault_links.h"
#include "faults/fault_schedule.h"
#include "policies/policy_factory.h"
#include "random_instances.h"
#include "reference_core.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

void expect_equivalent(const Stream& stream, const sim::SimConfig& config,
                       std::string_view policy, std::uint64_t seed,
                       const difftest::LinkFactory& link = {},
                       const difftest::LinkFactory& oracle_link = {}) {
  const std::string reproducer =
      "policy=" + std::string(policy) + "\n" +
      testgen::describe_instance(seed, stream, config);
  difftest::expect_three_way(stream, config, policy, reproducer, link,
                             oracle_link);
}

constexpr std::uint64_t kSeedBase = 0x5eedc0de;
constexpr int kRandomRounds = 8;

// ---------------------------------------------------------------------------
// Lossless fixed-delay link, random instances × every registered policy.
// ---------------------------------------------------------------------------

class EquivalencePolicy : public ::testing::TestWithParam<std::string> {};

TEST_P(EquivalencePolicy, RandomStreamsLossless) {
  for (int round = 0; round < kRandomRounds; ++round) {
    const std::uint64_t seed = kSeedBase + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream = testgen::random_stream(rng);
    const sim::SimConfig config = testgen::random_config(rng, stream);
    expect_equivalent(stream, config, GetParam(), seed);
    if (HasFailure()) return;  // one reproducer is enough
  }
}

TEST_P(EquivalencePolicy, RandomStreamsBoundedJitter) {
  for (int round = 0; round < kRandomRounds; ++round) {
    const std::uint64_t seed =
        kSeedBase + 1000 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream = testgen::random_stream(rng);
    sim::SimConfig config = testgen::random_config(rng, stream);
    const Time jitter = rng.uniform_int(1, 3);
    const std::uint64_t link_seed = seed ^ 0x9e3779b97f4a7c15ULL;
    expect_equivalent(
        stream, config, GetParam(), seed,
        [&config, jitter, link_seed] {
          return std::make_unique<BoundedJitterLink>(config.link_delay,
                                                     jitter, Rng(link_seed));
        },
        [&config, jitter, link_seed] {
          return std::make_unique<refcore::ReferenceBoundedJitterLink>(
              config.link_delay, jitter, Rng(link_seed));
        });
    if (HasFailure()) return;
  }
}

TEST_P(EquivalencePolicy, RandomStreamsErasureWithRecovery) {
  for (int round = 0; round < kRandomRounds; ++round) {
    const std::uint64_t seed =
        kSeedBase + 2000 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream = testgen::random_stream(rng);
    sim::SimConfig config = testgen::random_config(rng, stream);
    // Force the recovery path on so the retransmission queue — one of the
    // replaced deques — actually carries traffic.
    config.recovery.enabled = true;
    if (config.recovery.max_retries == 0) config.recovery.max_retries = 2;
    const double loss = 0.05 + 0.1 * rng.uniform01();
    const std::uint64_t link_seed = seed ^ 0xdeadbeefcafef00dULL;
    expect_equivalent(
        stream, config, GetParam(), seed,
        [&config, loss, link_seed] {
          return std::make_unique<faults::ScheduledFaultLink>(
              std::make_unique<FixedDelayLink>(config.link_delay),
              std::vector<faults::FaultPhase>{{.loss_probability = loss}},
              Rng(link_seed));
        },
        [&config, loss, link_seed] {
          return std::make_unique<faults::ScheduledFaultLink>(
              std::make_unique<refcore::ReferenceFixedDelayLink>(
                  config.link_delay),
              std::vector<faults::FaultPhase>{{.loss_probability = loss}},
              Rng(link_seed));
        });
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EquivalencePolicy,
                         ::testing::ValuesIn(known_policies()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Deterministic anchor: the benchmark workload (stock clip, balanced plan)
// across every policy — the exact configuration whose hot path the
// optimization targets.
// ---------------------------------------------------------------------------

TEST(Equivalence, StockClipBalancedPlanAllPolicies) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 120), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  const Bytes rate = sim::relative_rate(stream, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * stream.max_frame_bytes(), rate);
  const sim::SimConfig config = sim::SimConfig::balanced(plan);
  for (const std::string& policy : known_policies()) {
    expect_equivalent(stream, config, policy, /*seed=*/0);
  }
}

// Greedy's tie rule: of two equally cheap droppable chunks it sheds the
// newer. At t = 1 three unit slices worth 2, 3 and 2 meet B = R = 1, so one
// slice worth 2 must go, and with P + D = 1 only the head slice, sent at
// t = 1, plays on time: the older slice worth 2 when the newer one is shed,
// the slice worth 3 otherwise. The slice worth 0 at t = 0 is sent at once,
// but it leaves the buffer's value floor at 0, so the production scan
// cannot stop at the first chunk worth 2 and must apply the tie rule
// itself. Minimized from the corner fuzz's deadline-equals-horizon instance
// at seed 3224166997, the round that caught a ties-to-oldest scan.
TEST(Equivalence, GreedyShedsTheNewerOfTwoEquallyCheapChunks) {
  const Stream stream = Stream::from_runs(
      {{.arrival = 0, .weight = 0.0, .frame_index = 0},
       {.arrival = 1, .weight = 2.0, .frame_index = 1},
       {.arrival = 1, .weight = 3.0, .frame_index = 2},
       {.arrival = 1, .weight = 2.0, .frame_index = 3}});
  sim::SimConfig config;  // B = R = 1, P = 1
  config.smoothing_delay = 0;
  expect_equivalent(stream, config, "greedy", /*seed=*/0);
}

// The Gilbert-Elliott chain exercises bursty loss: long NACK trains land in
// the retransmission queue in one step, which is where a ring-capacity bug
// would hide — and its lazily-replayed state machine is the hardest
// RNG-consumption case for skipped spans (DESIGN.md Sect. 17).
TEST(Equivalence, StockClipGilbertElliottBurstLoss) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 80), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  const Bytes rate = sim::relative_rate(stream, 0.9);
  const Plan plan = Planner::from_buffer_rate(2 * stream.max_frame_bytes(), rate);
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  config.recovery.enabled = true;
  config.recovery.max_retries = 3;
  config.underflow = UnderflowPolicy::Stall;
  config.max_stall = 4;
  const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.05,
                                        .p_bad_to_good = 0.4,
                                        .loss_good = 0.0,
                                        .loss_bad = 0.9};
  const std::uint64_t link_seed = 1234;
  expect_equivalent(
      stream, config, "tail-drop", /*seed=*/0,
      [&config, ge, link_seed] {
        return std::make_unique<faults::GilbertElliottLink>(
            std::make_unique<FixedDelayLink>(config.link_delay), ge,
            Rng(link_seed));
      },
      [&config, ge, link_seed] {
        return std::make_unique<faults::GilbertElliottLink>(
            std::make_unique<refcore::ReferenceFixedDelayLink>(
                config.link_delay),
            ge, Rng(link_seed));
      });
}

}  // namespace
}  // namespace rtsmooth

// Property tests: parameterized sweeps over random streams, policies and
// resource configurations, asserting the paper's invariants hold on every
// combination (gtest TEST_P as the property-based harness; seeds make each
// instance reproducible).
//
// The PropertyFuzz suite at the bottom runs open-ended randomized rounds
// (default 50; RTSMOOTH_PROP_ITERS overrides — the nightly CI job runs 2000
// under ASan/UBSan). Every failing round prints a self-contained reproducer
// (seed, expanded SliceRuns, SimConfig) to stderr, and also writes it to
// $RTSMOOTH_REPRO_DIR/<label>_<seed>.txt when that variable is set, so CI
// can upload the dumps as artifacts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/competitive.h"
#include "brute_force.h"
#include "core/planner.h"
#include "daemon/live_engine.h"
#include "differential.h"
#include "faults/fault_links.h"
#include "faults/fault_schedule.h"
#include "obs/flight_recorder.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "policies/policy_factory.h"
#include "random_instances.h"
#include "reference_offline.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "tandem/tandem.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

// ------------------------------------------------------- system invariants

using SystemParams = std::tuple<std::string /*policy*/, int /*seed*/,
                                int /*rate*/, int /*delay*/>;

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

std::string system_param_name(
    const ::testing::TestParamInfo<SystemParams>& param_info) {
  const auto& [policy, seed, rate, delay] = param_info.param;
  return sanitize(policy + "_s" + std::to_string(seed) + "_r" +
                  std::to_string(rate) + "_d" + std::to_string(delay));
}

class SystemInvariants : public ::testing::TestWithParam<SystemParams> {};

TEST_P(SystemInvariants, HoldOnRandomUnitStreams) {
  const auto& [policy, seed, rate, delay] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Stream s = analysis::random_unit_stream(rng, 40, 15, 12.0, 0.8);
  const Plan plan = Planner::from_delay_rate(delay, rate);
  sim::SmoothingSimulator simulator(
      s, sim::SimConfig::balanced(plan), make_policy(policy));
  ScheduleRecorder rec(s.run_count());
  const SimReport report = simulator.run(&rec);

  // Conservation (offered = played + dropped + residual) and drain.
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.residual.bytes, 0);

  // Resource bounds (Definition 2.4 + Lemmas 3.2, 3.4).
  EXPECT_LE(report.max_server_occupancy, plan.buffer);
  EXPECT_LE(report.max_client_occupancy, plan.buffer);
  EXPECT_LE(report.max_link_bytes_per_step, plan.rate);

  // Client transparency at B = RD (Lemmas 3.3/3.4).
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
  EXPECT_EQ(report.dropped_client_late.bytes, 0);

  // Per-run timing: sends within B/R of arrival (Lemma 3.2), playout at
  // AT + P + D.
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    const RunOutcome& out = rec.run(i);
    if (out.last_send != kNever) {
      EXPECT_LE(out.last_send,
                s.runs()[i].arrival + plan.buffer / plan.rate);
      EXPECT_GE(out.first_send, s.runs()[i].arrival);
    }
    if (out.played > 0) {
      EXPECT_EQ(out.play_time, s.runs()[i].arrival + 1 + plan.delay);
    }
    // Every slice of the run is accounted exactly once; at B = RD the
    // client drops none (checked above).
    EXPECT_EQ(out.played + out.dropped_server, s.runs()[i].count);
  }

  // Theorem 3.5: played bytes equal the off-line optimum (unit slices, any
  // policy). The proactive policy early-drops and is exempt by design.
  if (policy != "proactive") {
    const auto optimal = offline::unit_optimal(s, plan.buffer, plan.rate);
    EXPECT_EQ(report.played.bytes, optimal.accepted_bytes);
  }

  // Weighted benefit never beats the weighted off-line optimum.
  const Weight opt_weight =
      offline::unit_optimal(s, plan.buffer, plan.rate).benefit;
  EXPECT_LE(report.played.weight, opt_weight + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeedGrid, SystemInvariants,
    ::testing::Combine(
        ::testing::Values("tail-drop", "greedy", "head-drop", "random",
                          "proactive"),
        ::testing::Values(1, 2, 3),
        ::testing::Values(1, 3),
        ::testing::Values(2, 5)),
    system_param_name);

// -------------------------------------------- variable-size slice sweeps

using VariableParams = std::tuple<std::string, int /*seed*/, int /*lmax*/>;

std::string variable_param_name(
    const ::testing::TestParamInfo<VariableParams>& param_info) {
  const auto& [policy, seed, lmax] = param_info.param;
  return sanitize(policy + "_s" + std::to_string(seed) + "_l" +
                  std::to_string(lmax));
}

class VariableSliceInvariants
    : public ::testing::TestWithParam<VariableParams> {};

TEST_P(VariableSliceInvariants, HoldOnRandomVariableStreams) {
  const auto& [policy, seed, lmax] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000003);
  const Stream s =
      analysis::random_variable_stream(rng, 30, 5, 9.0, lmax, 0.75);
  const Bytes buffer = std::max<Bytes>(s.max_slice_size() * 2, 6);
  const Plan plan = Planner::from_buffer_rate(buffer, 2);
  if (plan.buffer < s.max_slice_size()) GTEST_SKIP();
  sim::SmoothingSimulator simulator(
      s, sim::SimConfig::balanced(plan), make_policy(policy));
  const SimReport report = simulator.run();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.residual.bytes, 0);
  EXPECT_LE(report.max_server_occupancy, plan.buffer);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
  EXPECT_EQ(report.dropped_client_late.bytes, 0);

  // Theorem 3.9 envelope against the exact DP (throughput comparison uses
  // the unweighted optimum: rebuild the stream with weight = size).
  std::vector<SliceRun> unweighted(s.runs().begin(), s.runs().end());
  for (auto& run : unweighted) {
    run.weight = static_cast<Weight>(run.slice_size);
  }
  const Stream su = Stream::from_runs(std::move(unweighted));
  const auto optimal = offline::pareto_dp_optimal(su, plan.buffer, plan.rate);
  const double guarantee =
      Planner::throughput_guarantee(plan.buffer, s.max_slice_size());
  EXPECT_GE(static_cast<double>(report.played.bytes) + 1e-6,
            guarantee * optimal.benefit);
}

INSTANTIATE_TEST_SUITE_P(
    VariableGrid, VariableSliceInvariants,
    ::testing::Combine(::testing::Values("tail-drop", "greedy", "random"),
                       ::testing::Values(10, 11, 12, 13),
                       ::testing::Values(2, 4, 7)),
    variable_param_name);

// ----------------------------------------------- offline solver properties

class OfflineSolverProperties : public ::testing::TestWithParam<int> {};

TEST_P(OfflineSolverProperties, GreedyDpAndFeasibilityAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const Stream s = analysis::random_unit_stream(rng, 15, 6, 10.0);
  const Bytes buffer = rng.uniform_int(1, 8);
  const Bytes rate = rng.uniform_int(1, 3);
  const auto greedy = offline::unit_optimal(s, buffer, rate);
  const auto dp = offline::pareto_dp_optimal(s, buffer, rate);
  EXPECT_NEAR(greedy.benefit, dp.benefit, 1e-9);
  // Monotonicity: more buffer or more rate never hurts.
  EXPECT_LE(greedy.benefit,
            offline::unit_optimal(s, buffer + 2, rate).benefit + 1e-9);
  EXPECT_LE(greedy.benefit,
            offline::unit_optimal(s, buffer, rate + 1).benefit + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineSolverProperties,
                         ::testing::Range(1, 25));

// ------------------------------------------------------------ fuzz rounds

/// Round count: default 50, overridden by RTSMOOTH_PROP_ITERS (the nightly
/// CI job runs 2000 under sanitizers).
int prop_iters() {
  if (const char* env = std::getenv("RTSMOOTH_PROP_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 50;
}

/// Emits the reproducer to stderr and, when RTSMOOTH_REPRO_DIR is set, to a
/// dump file CI can collect as an artifact. The directory is created if it
/// does not exist, and a single dump is capped at 1 MB so a pathological
/// instance cannot fill the artifact store.
void dump_reproducer(const std::string& label, std::uint64_t seed,
                     const Stream& stream, const sim::SimConfig& config) {
  std::string repro = testgen::describe_instance(seed, stream, config);
  constexpr std::size_t kMaxDumpBytes = 1 << 20;
  if (repro.size() > kMaxDumpBytes) {
    repro.resize(kMaxDumpBytes);
    repro += "\n[reproducer truncated at 1 MB]\n";
  }
  std::cerr << "[reproducer] " << label << "\n" << repro;
  if (const char* dir = std::getenv("RTSMOOTH_REPRO_DIR")) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream out(std::string(dir) + "/" + label + "_" +
                      std::to_string(seed) + ".txt");
    out << "label=" << label << "\n" << repro;
  }
}

/// SimConfig carrier for offline-solver reproducers (only buffer and rate
/// are meaningful; the rest are the defaults describe_instance prints).
sim::SimConfig offline_config(Bytes buffer, Bytes rate) {
  sim::SimConfig config;
  config.server_buffer = buffer;
  config.client_buffer = buffer;
  config.rate = rate;
  return config;
}

/// Tiny random instance for the exponential oracle: total slice count kept
/// small enough that 2^slices subsets stay cheap even under sanitizers.
Stream small_stream(Rng& rng, bool unit_only) {
  std::vector<SliceRun> runs;
  std::int64_t total_slices = 0;
  Time arrival = rng.uniform_int(0, 1);
  const std::int64_t steps = rng.uniform_int(2, 6);
  for (std::int64_t step = 0; step < steps && total_slices < 12; ++step) {
    SliceRun run;
    run.arrival = arrival;
    run.slice_size =
        (unit_only || rng.bernoulli(0.5)) ? 1 : rng.uniform_int(2, 4);
    run.count = std::min<std::int64_t>(rng.uniform_int(1, 3),
                                       12 - total_slices);
    run.weight = rng.bernoulli(0.2)
                     ? 0.0
                     : static_cast<Weight>(rng.uniform_int(1, 9));
    run.frame_type = static_cast<FrameType>(rng.uniform_int(0, 3));
    run.frame_index = step;
    total_slices += run.count;
    runs.push_back(run);
    arrival += rng.uniform_int(1, 2);
  }
  return Stream::from_runs(std::move(runs));
}

/// Runs with arrival <= cutoff, i.e. the instance induced by a stream
/// prefix (used for the prefix-dominance property).
Stream prefix_stream(const Stream& stream, Time cutoff) {
  std::vector<SliceRun> runs;
  for (const SliceRun& run : stream.runs()) {
    if (run.arrival <= cutoff) runs.push_back(run);
  }
  return Stream::from_runs(std::move(runs));
}

/// System invariants (conservation, resource bounds) on fully random
/// instances — arbitrary slice sizes, buffers, playout modes, recovery —
/// across every registered policy.
TEST(PropertyFuzz, SimulatorInvariantsOnRandomInstances) {
  const int rounds = prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0xf022ed00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream = testgen::random_stream(rng);
    const sim::SimConfig config = testgen::random_config(rng, stream);
    for (const std::string& policy : known_policies()) {
      sim::SmoothingSimulator simulator(stream, config, make_policy(policy));
      const SimReport report = simulator.run();
      const bool ok = report.conserves() && report.residual.bytes == 0 &&
                      report.max_server_occupancy <= config.server_buffer &&
                      report.max_client_occupancy <= config.client_buffer &&
                      report.max_link_bytes_per_step <= config.rate;
      EXPECT_TRUE(ok) << "policy=" << policy;
      if (!ok) {
        dump_reproducer("invariants_" + sanitize(policy), seed, stream,
                        config);
        return;
      }
    }
  }
}

/// Three-way agreement: the deque reference oracle and the production
/// simulator, stepping every slot and skipping quiescent spans, must
/// produce byte-identical SimReports and JSONL traces (and, between the two
/// production legs, identical registry snapshots and flight-recorder
/// incident lists) on fully random instances. One policy per round, rotating, keeps the nightly sanitizer
/// budget linear in RTSMOOTH_PROP_ITERS.
TEST(PropertyFuzz, ThreeWayEngineAgreementOnRandomInstances) {
  const int rounds = prop_iters();
  const std::vector<std::string> policies = known_policies();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x3e3a9e00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream = testgen::random_stream(rng);
    const sim::SimConfig config = testgen::random_config(rng, stream);
    const std::string& policy =
        policies[static_cast<std::size_t>(round) % policies.size()];
    difftest::expect_three_way(
        stream, config, policy,
        "policy=" + policy + "\n" +
            testgen::describe_instance(seed, stream, config));
    if (HasFailure()) {
      dump_reproducer("three_way_" + sanitize(policy), seed, stream, config);
      return;
    }
  }
}

/// Same agreement property on the targeted corner families of
/// random_instances.h — zero-length bursts, deadline == horizon,
/// single-slice streams, rate exactly equal to the peak arrival rate — the
/// boundaries the simulator's skip logic pivots on.
TEST(PropertyFuzz, ThreeWayEngineAgreementOnCornerInstances) {
  const int rounds = prop_iters();
  const std::vector<std::string> policies = known_policies();
  constexpr std::size_t kCorners = std::size(testgen::kAllCorners);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < kCorners; ++c) {
      const testgen::Corner corner = testgen::kAllCorners[c];
      const std::uint64_t seed =
          0xc02ce200 + static_cast<std::uint64_t>(round) * kCorners + c;
      Rng rng(seed);
      const Stream stream = testgen::corner_stream(rng, corner);
      const sim::SimConfig config =
          testgen::corner_config(rng, stream, corner);
      const std::string& policy =
          policies[static_cast<std::size_t>(round) % policies.size()];
      difftest::expect_three_way(
          stream, config, policy,
          "corner=" + std::string(testgen::corner_name(corner)) +
              "\npolicy=" + policy + "\n" +
              testgen::describe_instance(seed, stream, config));
      if (HasFailure()) {
        dump_reproducer("three_way_" +
                            sanitize(testgen::corner_name(corner)) + "_" +
                            sanitize(policy),
                        seed, stream, config);
        return;
      }
    }
  }
}

/// Theorem 3.5, strengthened to prefixes: with unit slices, every
/// work-conserving policy plays exactly the off-line optimal byte count —
/// on the full stream and on every arrival prefix (each prefix is itself an
/// instance; dominance on all of them pins the greedy exchange argument,
/// not just the endpoint). Weighted benefit stays below the weighted
/// optimum throughout.
TEST(PropertyFuzz, UnitPrefixDominanceMatchesOfflineOptimal) {
  const int rounds = prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0xd0a11a00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream =
        analysis::random_unit_stream(rng, rng.uniform_int(8, 30),
                                     rng.uniform_int(2, 10), 9.0, 0.8);
    if (stream.run_count() == 0) continue;
    const Bytes rate = rng.uniform_int(1, 4);
    const Time delay = rng.uniform_int(1, 5);
    const Plan plan = Planner::from_delay_rate(delay, rate);
    const Time last = stream.runs().back().arrival;
    const Time cutoffs[] = {last / 3, (2 * last) / 3, last};
    for (const std::string& policy : known_policies()) {
      if (policy == "proactive") continue;  // early-drops by design
      for (const Time cutoff : cutoffs) {
        const Stream prefix = prefix_stream(stream, cutoff);
        if (prefix.run_count() == 0) continue;
        sim::SmoothingSimulator simulator(
            prefix, sim::SimConfig::balanced(plan), make_policy(policy));
        const SimReport report = simulator.run();
        const auto optimal =
            offline::unit_optimal(prefix, plan.buffer, plan.rate);
        const bool ok =
            report.played.bytes == optimal.accepted_bytes &&
            report.played.weight <= optimal.benefit + 1e-6;
        EXPECT_TRUE(ok) << "policy=" << policy << " cutoff=" << cutoff
                        << " played=" << report.played.bytes
                        << " optimal=" << optimal.accepted_bytes;
        if (!ok) {
          dump_reproducer("prefix_dominance_" + sanitize(policy), seed,
                          prefix,
                          sim::SimConfig::balanced(plan));
          return;
        }
      }
    }
  }
}

/// Lemma 3.6: benefit is monotone in the buffer — growing B (at fixed R)
/// never reduces the off-line optimum, nor the bytes a work-conserving
/// policy plays online.
TEST(PropertyFuzz, BufferMonotonicity) {
  const int rounds = prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0xb0ffe200 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const Stream stream =
        analysis::random_unit_stream(rng, rng.uniform_int(8, 25),
                                     rng.uniform_int(2, 8), 7.0, 0.75);
    if (stream.run_count() == 0) continue;
    const Bytes rate = rng.uniform_int(1, 3);
    Weight prev_benefit = -1.0;
    Bytes prev_played = -1;
    for (Bytes buffer = rate; buffer <= rate * 5; buffer += rate) {
      const auto optimal = offline::unit_optimal(stream, buffer, rate);
      sim::SmoothingSimulator simulator(
          stream,
          sim::SimConfig::balanced(Planner::from_buffer_rate(buffer, rate)),
          make_policy("tail-drop"));
      const SimReport report = simulator.run();
      const bool ok = optimal.benefit >= prev_benefit - 1e-9 &&
                      report.played.bytes >= prev_played;
      EXPECT_TRUE(ok) << "buffer=" << buffer << " rate=" << rate;
      if (!ok) {
        dump_reproducer("buffer_monotonicity", seed, stream,
                        offline_config(buffer, rate));
        return;
      }
      prev_benefit = optimal.benefit;
      prev_played = report.played.bytes;
    }
  }
}

/// The polynomial solvers against the exponential oracle on small
/// instances: pareto_dp_optimal must match brute_force_optimal exactly for
/// arbitrary slice sizes, and unit_optimal must match on unit instances.
TEST(PropertyFuzz, SolversMatchBruteForceOnSmallInstances) {
  const int rounds = prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0xb20cef00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    const bool unit_only = rng.bernoulli(0.5);
    const Stream stream = small_stream(rng, unit_only);
    if (stream.run_count() == 0) continue;
    const Bytes buffer =
        std::max<Bytes>(stream.max_slice_size(), rng.uniform_int(1, 8));
    const Bytes rate = rng.uniform_int(1, 3);
    const Weight exact = offline::brute_force_optimal(stream, buffer, rate);
    const auto dp = offline::pareto_dp_optimal(stream, buffer, rate);
    bool ok = std::abs(dp.benefit - exact) <= 1e-9;
    if (ok && unit_only) {
      const auto greedy = offline::unit_optimal(stream, buffer, rate);
      ok = std::abs(greedy.benefit - exact) <= 1e-9;
    }
    EXPECT_TRUE(ok) << "brute=" << exact << " dp=" << dp.benefit;
    if (!ok) {
      dump_reproducer("solver_mismatch", seed, stream,
                      offline_config(buffer, rate));
      return;
    }
  }
}

/// A stream shaped for the exact solvers' fast paths: many distinct byte
/// values, frequent ties and some zero weights (the greedy's order, equal
/// weights at different occupancies in the DP), idle gaps, several runs per
/// step and a late first arrival (the tree's leaves), and slices of 1 to
/// `max_size` bytes (the DP's merge).
Stream solver_stream(Rng& rng, Bytes max_size, std::int64_t max_steps,
                     std::int64_t max_count) {
  std::vector<SliceRun> runs;
  Time arrival = rng.uniform_int(0, 40);
  const std::int64_t steps = rng.uniform_int(1, max_steps);
  for (std::int64_t step = 0; step < steps; ++step) {
    const std::int64_t per_step = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < per_step; ++k) {
      const Bytes size = rng.uniform_int(1, max_size);
      Weight value = 0.0;  // free slices: keeping one adds only occupancy
      if (rng.bernoulli(0.4)) {
        value = static_cast<Weight>(rng.uniform_int(1, 3));
      } else if (rng.bernoulli(0.85)) {
        value = static_cast<Weight>(rng.uniform_int(1, 4000)) / 10.0;
      }
      runs.push_back(SliceRun{.arrival = arrival,
                              .slice_size = size,
                              .count = rng.uniform_int(1, max_count),
                              .weight = value * static_cast<Weight>(size),
                              .frame_index = step});
    }
    arrival += rng.uniform_int(1, 6);
  }
  return Stream::from_runs(std::move(runs));
}

/// A unit stream with the frame-type values' shape: byte values from
/// {0, 1, 8, 12}, two to four runs per step (often several of one value at
/// one arrival), and a few idle steps before the first arrival. It has at
/// least two runs per cell of the prefix curve, so its four values are
/// within class_pass_limit() and unit_optimal takes the per-class passes.
Stream few_valued_stream(Rng& rng) {
  const Weight values[] = {0.0, 1.0, 8.0, 12.0};
  std::vector<SliceRun> runs;
  Time arrival = rng.uniform_int(0, 10);
  const std::int64_t steps = rng.uniform_int(20, 200);
  for (std::int64_t step = 0; step < steps; ++step, ++arrival) {
    Weight value = values[rng.uniform_int(0, 3)];
    for (std::int64_t k = rng.uniform_int(2, 4); k > 0; --k) {
      if (rng.bernoulli(0.6)) value = values[rng.uniform_int(0, 3)];
      runs.push_back(SliceRun{.arrival = arrival,
                              .count = rng.uniform_int(1, 30),
                              .weight = value,
                              .frame_index = step});
    }
  }
  return Stream::from_runs(std::move(runs));
}

bool same_result(const offline::OfflineResult& a,
                 const offline::OfflineResult& b) {
  return a.benefit == b.benefit && a.accepted_bytes == b.accepted_bytes &&
         a.accepted_slices == b.accepted_slices &&
         a.accepted_per_run == b.accepted_per_run;
}

bool same_result(const offline::ParetoDpResult& a,
                 const offline::ParetoDpResult& b) {
  return a.benefit == b.benefit && a.peak_states == b.peak_states;
}

bool same_result(const offline::OptimalBracket& a,
                 const offline::OptimalBracket& b) {
  return a.lower == b.lower && a.upper == b.upper && a.quantum == b.quantum;
}

/// Each solver against its straightforward predecessor
/// (reference_offline.h): the greedy must return the same OfflineResult,
/// the DP the same benefit bit for bit with the same `peak_states`, and the
/// bracket the same bounds.
class OfflineReferenceCheck {
 public:
  explicit OfflineReferenceCheck(std::uint64_t seed) : seed_(seed) {}

  bool unit(const Stream& stream, Bytes buffer, Bytes rate) {
    return check("unit_optimal", stream, buffer, rate,
                 same_result(offline::unit_optimal(stream, buffer, rate),
                             refoffline::unit_optimal(stream, buffer, rate)));
  }

  /// The reference keeps its state limit. Cutting a Pareto frontier to its
  /// heaviest `kStateLimit` states leaves exactly that many, so a peak below
  /// the limit proves the reference never cut and its answer is exact.
  bool dp(const Stream& stream, Bytes buffer, Bytes rate) {
    const auto reference = refoffline::pareto_dp_optimal(stream, buffer, rate);
    EXPECT_LT(reference.peak_states, refoffline::kStateLimit)
        << "the reference cut its frontier: seed=" << seed_
        << " buffer=" << buffer << " rate=" << rate;
    return check("pareto_dp", stream, buffer, rate,
                 same_result(offline::pareto_dp_optimal(stream, buffer, rate),
                             reference));
  }

  bool bracket(const Stream& stream, Bytes buffer, Bytes rate,
               Bytes quantum) {
    return check("bracket_q" + std::to_string(quantum), stream, buffer, rate,
                 same_result(offline::quantized_optimal_bracket(
                                 stream, buffer, rate, quantum),
                             refoffline::quantized_optimal_bracket(
                                 stream, buffer, rate, quantum)));
  }

 private:
  bool check(const std::string& solver, const Stream& stream, Bytes buffer,
             Bytes rate, bool ok) const {
    EXPECT_TRUE(ok) << solver << " differs from the reference: seed=" << seed_
                    << " buffer=" << buffer << " rate=" << rate;
    if (!ok) {
      dump_reproducer("offline_reference_" + solver, seed_, stream,
                      offline_config(buffer, rate));
    }
    return ok;
  }

  std::uint64_t seed_;
};

/// The exact solvers give their predecessors' answers bit for bit: on
/// random instances every round (the unit greedy on a many-valued stream
/// and on a few-valued one that takes its per-class passes), and once on
/// clip-scale cnn-news inputs (byte-slice clips of 1000 frames, whole-frame
/// clips and the quantized bracket). Whole-frame DP clips stay at 40
/// frames: the reference DP needs seconds at 100.
TEST(PropertyFuzz, OfflineSolversMatchReference) {
  const int rounds = prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x0ff1ce00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    OfflineReferenceCheck check(seed);
    const Stream units = solver_stream(rng, 1, 200, 30);
    if (!check.unit(units, rng.uniform_int(1, 120), rng.uniform_int(1, 40))) {
      return;
    }
    const Stream frames = solver_stream(rng, 24, 60, 3);
    const Bytes buffer =
        std::max<Bytes>(frames.max_slice_size(), rng.uniform_int(1, 400));
    const Bytes rate = rng.uniform_int(1, 30);
    rng.uniform_int(0, 3);  // unread; keeps the round's later instances
    if (!check.dp(frames, buffer, rate)) return;
    const Bytes quantum = rng.uniform_int(1, std::min(buffer, rate));
    if (!check.bracket(frames, buffer, rate, quantum)) return;
    const Stream few = few_valued_stream(rng);
    ASSERT_LE(4u, offline::class_pass_limit(few.run_count(), few.horizon()));
    if (!check.unit(few, rng.uniform_int(1, 120), rng.uniform_int(1, 40))) {
      return;
    }
  }

  OfflineReferenceCheck check(0);
  const auto clip = [](trace::Slicing slicing, std::size_t frames) {
    return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                               trace::ValueModel::mpeg_default(), slicing);
  };
  const Stream bytes = clip(trace::Slicing::ByteSlices, 1000);
  for (const double fraction : {0.9, 1.1}) {
    const Bytes rate = sim::relative_rate(bytes, fraction);
    for (Bytes m = 1; m <= 26; ++m) {
      if (!check.unit(bytes, m * bytes.max_frame_bytes(), rate)) return;
    }
  }
  const Stream frames = clip(trace::Slicing::WholeFrame, 40);
  const Stream long_frames = clip(trace::Slicing::WholeFrame, 300);
  for (const double fraction : {0.9, 1.1}) {
    const Bytes rate = sim::relative_rate(frames, fraction);
    for (const Bytes m : {1, 2}) {
      const Bytes buffer = m * frames.max_frame_bytes();
      if (!check.dp(frames, buffer, rate)) return;
      if (!check.bracket(frames, buffer, rate, 64)) return;
    }
    const Bytes long_rate = sim::relative_rate(long_frames, fraction);
    for (const Bytes m : {1, 4, 16}) {
      const Bytes buffer = m * long_frames.max_frame_bytes();
      if (!check.bracket(long_frames, buffer, long_rate,
                         std::max<Bytes>(256, buffer / 1024))) {
        return;
      }
    }
  }
}

/// The live engine's link for one cell of the LiveEngine-vs-simulator
/// matrix; each side builds its own instance, seeded alike.
enum class FuzzLink { Fixed, Erasure, GilbertElliott };

const char* fuzz_link_name(FuzzLink kind) {
  switch (kind) {
    case FuzzLink::Fixed:
      return "fixed";
    case FuzzLink::Erasure:
      return "erasure";
    case FuzzLink::GilbertElliott:
      return "gilbert_elliott";
  }
  return "?";
}

std::unique_ptr<Link> make_fuzz_link(FuzzLink kind, Time delay, double loss,
                                     std::uint64_t seed) {
  switch (kind) {
    case FuzzLink::Fixed:
      return std::make_unique<FixedDelayLink>(delay);
    case FuzzLink::Erasure:
      return std::make_unique<faults::ScheduledFaultLink>(
          delay, std::vector<faults::FaultPhase>{{.loss_probability = loss}},
          Rng(seed));
    case FuzzLink::GilbertElliott:
      return std::make_unique<faults::GilbertElliottLink>(
          delay,
          faults::GilbertElliottConfig{.p_good_to_bad = loss,
                                       .p_bad_to_good = 0.5,
                                       .loss_good = 0.0,
                                       .loss_bad = 1.0},
          Rng(seed));
  }
  return nullptr;
}

/// The daemon's LiveEngine runs the simulator's own step: fed the same
/// random unit-slice frames (several per step, mixed types), it must match
/// sim::simulate on every whole step record and on the final report (except
/// the invariant tallies; the engine runs no InvariantMonitor). Every round
/// covers fixed, erasure and Gilbert-Elliott links with recovery on,
/// tail-drop and greedy, and a client buffer of B and below B.
TEST(PropertyFuzz, LiveEngineMatchesSimulator) {
  const int rounds = prop_iters();
  const trace::ValueModel values = trace::ValueModel::mpeg_default();
  constexpr std::size_t kWindow = 4096;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x11fe0e00 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    daemon::EngineConfig engine;
    engine.rate = rng.uniform_int(1, 8);
    engine.smoothing_delay = rng.uniform_int(1, 4);
    engine.link_delay = rng.uniform_int(0, 3);
    engine.server_buffer = engine.rate * engine.smoothing_delay;
    engine.values = values;
    engine.recovery.enabled = true;
    engine.recovery.max_retries = static_cast<std::int32_t>(rng.uniform_int(1, 3));
    engine.recovery.backoff_base = rng.uniform_int(1, 2);
    const double loss = 0.1 + 0.1 * static_cast<double>(rng.uniform_int(0, 3));
    const Bytes small_client = rng.uniform_int(1, engine.server_buffer);

    // Frames per step, and the same frames as a batch stream: frame s of the
    // schedule is run s, arriving at its step with the engine's weighting.
    std::vector<std::vector<daemon::IngestFrame>> schedule(
        static_cast<std::size_t>(rng.uniform_int(1, 30)));
    std::vector<SliceRun> runs;
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      const std::int64_t frames = rng.uniform_int(0, 3);
      for (std::int64_t f = 0; f < frames; ++f) {
        const daemon::IngestFrame frame{
            .type = static_cast<FrameType>(rng.uniform_int(0, 3)),
            .size = rng.uniform_int(1, 3 * engine.rate)};
        schedule[t].push_back(frame);
        runs.push_back(SliceRun{.arrival = static_cast<Time>(t),
                                .slice_size = 1,
                                .count = frame.size,
                                .weight = values.byte_value(frame.type),
                                .frame_type = frame.type,
                                .frame_index =
                                    static_cast<std::int64_t>(runs.size())});
      }
    }
    const Stream stream = Stream::from_runs(std::move(runs));
    engine.max_live_runs = std::max<std::size_t>(2, stream.run_count() + 1);

    for (const FuzzLink link : {FuzzLink::Fixed, FuzzLink::Erasure,
                                FuzzLink::GilbertElliott}) {
      for (const char* policy : {"tail-drop", "greedy"}) {
        for (const Bytes client_buffer : {engine.server_buffer, small_client}) {
          daemon::EngineConfig cell = engine;
          cell.policy = policy;
          cell.client_buffer = client_buffer;
          sim::SimConfig config;
          config.server_buffer = cell.server_buffer;
          config.client_buffer = cell.client_buffer;
          config.rate = cell.rate;
          config.smoothing_delay = cell.smoothing_delay;
          config.link_delay = cell.link_delay;
          config.recovery = cell.recovery;

          obs::FlightRecorder batch_steps(
              {.window = kWindow, .trigger_on_violation = false});
          config.telemetry.recorder = &batch_steps;
          const SimReport batch = sim::simulate(
              stream, config, policy,
              make_fuzz_link(link, cell.link_delay, loss, seed));
          ASSERT_LE(batch.steps, static_cast<Time>(kWindow));

          obs::FlightRecorder live_steps(
              {.window = kWindow, .trigger_on_violation = false});
          daemon::LiveEngine live(
              cell, obs::Telemetry{.recorder = &live_steps},
              make_fuzz_link(link, cell.link_delay, loss, seed));
          for (Time t = 0; t < batch.steps; ++t) {
            const auto at = static_cast<std::size_t>(t);
            live.step(at < schedule.size()
                          ? std::span<const daemon::IngestFrame>(schedule[at])
                          : std::span<const daemon::IngestFrame>());
          }

          const std::string cell_name = std::string(fuzz_link_name(link)) +
                                        "_" + sanitize(policy) +
                                        (client_buffer < cell.server_buffer
                                             ? "_small_client"
                                             : "_balanced");
          const std::vector<obs::StepRecord> want = batch_steps.window();
          const std::vector<obs::StepRecord> got = live_steps.window();
          bool ok = want.size() == got.size();
          EXPECT_EQ(got.size(), want.size()) << cell_name;
          for (std::size_t i = 0; ok && i < want.size(); ++i) {
            ok = got[i] == want[i];
            EXPECT_TRUE(ok) << cell_name << " step " << i << ": engine "
                            << got[i].to_json().dump() << " vs simulator "
                            << want[i].to_json().dump();
          }
          SimReport live_report = live.report();
          live_report.invariants = batch.invariants;
          const bool reports_match = live_report == batch;
          EXPECT_TRUE(reports_match)
              << cell_name << ": engine {" << live_report
              << ", max_lateness=" << live_report.max_lateness
              << "} vs simulator {" << batch
              << ", max_lateness=" << batch.max_lateness << "}";
          if (!ok || !reports_match) {
            dump_reproducer("live_engine_" + cell_name, seed, stream, config);
            return;
          }
        }
      }
    }
  }
}

/// A one-hop tandem is the simulator's server -> link -> client step run
/// by TandemSimulator's hop loop, so it must reproduce sim::simulate as a
/// whole report on random unit-slice streams and random Bs, Bc, R, D, P,
/// for every policy. Balanced configurations (Bs = Bc = R*D) compare every
/// field; unbalanced ones every field but the invariant tallies, which
/// only the simulator's InvariantMonitor keeps.
TEST(PropertyFuzz, TandemSingleHopMatchesSimulator) {
  const int rounds = prop_iters();
  const std::vector<std::string> policies = known_policies();
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = 0x7a4de900 + static_cast<std::uint64_t>(round);
    Rng rng(seed);
    sim::SimConfig config;
    config.rate = rng.uniform_int(1, 8);
    config.smoothing_delay = rng.uniform_int(0, 4);
    config.link_delay = rng.uniform_int(0, 3);
    const bool balanced = config.smoothing_delay > 0 && rng.bernoulli(0.5);
    if (balanced) {
      config.server_buffer = config.rate * config.smoothing_delay;
      config.client_buffer = config.server_buffer;
    } else {
      config.server_buffer = rng.uniform_int(1, 4 * config.rate);
      config.client_buffer = rng.uniform_int(1, 4 * config.rate);
    }

    // Unit-slice runs of mixed types and weights, sometimes several per
    // step, with gaps between arrival steps.
    std::vector<SliceRun> runs;
    Time arrival = rng.uniform_int(0, 2);
    const std::int64_t frames = rng.uniform_int(1, 30);
    for (std::int64_t f = 0; f < frames; ++f) {
      const std::int64_t per_step = rng.bernoulli(0.2) ? 2 : 1;
      for (std::int64_t r = 0; r < per_step; ++r) {
        runs.push_back(SliceRun{
            .arrival = arrival,
            .slice_size = 1,
            .count = rng.uniform_int(1, 3 * config.rate),
            .weight = rng.bernoulli(0.2)
                          ? 0.0
                          : static_cast<Weight>(rng.uniform_int(1, 12)),
            .frame_type = static_cast<FrameType>(rng.uniform_int(0, 3)),
            .frame_index = f});
      }
      arrival += rng.uniform_int(1, 3);
    }
    const Stream stream = Stream::from_runs(std::move(runs));

    for (const std::string& policy : policies) {
      const SimReport want = sim::simulate(stream, config, policy);
      tandem::TandemSimulator tandem(
          stream,
          {tandem::HopConfig{.buffer = config.server_buffer,
                             .rate = config.rate,
                             .link_delay = config.link_delay}},
          *make_policy(policy), config.smoothing_delay,
          config.client_buffer);
      SimReport got = tandem.run().end_to_end;
      if (!balanced) got.invariants = want.invariants;
      const bool ok = got == want;
      EXPECT_TRUE(ok) << "policy=" << policy
                      << (balanced ? " balanced" : " unbalanced")
                      << ": tandem {" << got
                      << ", max_link=" << got.max_link_bytes_per_step
                      << "} vs simulator {" << want
                      << ", max_link=" << want.max_link_bytes_per_step << "}";
      if (!ok) {
        dump_reproducer("tandem_" + sanitize(policy), seed, stream, config);
        return;
      }
    }
  }
}

}  // namespace
}  // namespace rtsmooth

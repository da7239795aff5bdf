// Gateway subsystem tests: the three load-bearing contracts from DESIGN.md
// Sect. 14 —
//
//   1. Determinism: reports, per-stream ledgers, and telemetry are
//      byte-identical at any thread count (shard map and fold order never
//      depend on execution width).
//   2. Conservation: admitted == served + dropped + unserved + backlog per
//      stream and in aggregate, through arbitrary churn.
//   3. Fidelity: an uncontended Static gateway is N independent paper
//      configurations — each stream's ledger matches a solo
//      ReferenceSimulator run of the same arrivals.
//
// Plus the sharing-policy semantics (work conservation, priority
// starvation, static non-redistribution), admission control, validation,
// flight-recorder integration, the cohort ring's inline-then-heap storage,
// and the stream pool's script side-table under churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "gateway/gateway.h"
#include "gateway/gateway_sweep.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "reference_core.h"
#include "sim/simulator.h"
#include "stream_helpers.h"

namespace {

using namespace rtsmooth;
using gateway::ArrivalModel;
using gateway::CohortRing;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::GatewayReport;
using gateway::SharePolicy;
using gateway::StreamId;
using gateway::StreamSpec;
using gateway::StreamStats;

/// The mixed gold/silver/bronze population the example ships; pure in `i`
/// so every run (and every sweep cell) sees the identical streams.
StreamSpec mixed_spec(std::size_t i) {
  switch (i % 3) {
    case 0:
      return StreamSpec{.rate = 96,
                        .deadline = 8,
                        .weight_class = 0,
                        .arrivals = ArrivalModel::vbr(80, 0x900 + i)};
    case 1:
      return StreamSpec{.rate = 48,
                        .deadline = 16,
                        .weight_class = 1,
                        .arrivals = ArrivalModel::vbr(40, 0x500 + i)};
    default:
      return StreamSpec{.rate = 24,
                        .deadline = 32,
                        .weight_class = 2,
                        .arrivals = ArrivalModel::on_off(64, 2, 5, 0xB00 + i)};
  }
}

/// One contended churn scenario, everything observable captured: the
/// aggregate report, every live ledger row, and the serialized registry.
struct ChurnOutcome {
  GatewayReport report;
  std::vector<StreamStats> live;
  std::string registry_json;
};

ChurnOutcome run_churn_scenario(unsigned threads, SharePolicy policy) {
  obs::Registry registry;
  Gateway gw(GatewayConfig{.rate = 2000,  // ~30% of subscribed: contended
                           .class_weights = {12.0, 8.0, 1.0},
                           .sharing = policy,
                           .shards = 8,
                           .threads = threads,
                           .telemetry = {.registry = &registry}});
  std::vector<StreamId> ids;
  for (std::size_t i = 0; i < 120; ++i) {
    ids.push_back(*gw.add_stream(mixed_spec(i)));
  }
  gw.run(40);
  for (std::size_t i = 0; i < ids.size(); i += 5) {
    EXPECT_TRUE(gw.remove_stream(ids[i]).has_value()) << i;
    gw.add_stream(mixed_spec(200 + i));
  }
  gw.run(40);
  gw.remove_stream(ids[1]);  // a couple of leaves with no replacement
  gw.remove_stream(ids[2]);
  gw.run(10);
  return ChurnOutcome{gw.report(), gw.all_stream_stats(),
                      registry.to_json(/*include_timers=*/false).dump()};
}

TEST(GatewayDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (const SharePolicy policy :
       {SharePolicy::Static, SharePolicy::WeightedShare,
        SharePolicy::Priority}) {
    SCOPED_TRACE(std::string(gateway::to_string(policy)));
    const ChurnOutcome serial = run_churn_scenario(1, policy);
    EXPECT_TRUE(serial.report.conserves());
    EXPECT_EQ(serial.report.violations, 0);
    for (const unsigned threads : {2U, 8U}) {
      SCOPED_TRACE(threads);
      const ChurnOutcome wide = run_churn_scenario(threads, policy);
      EXPECT_EQ(serial.report, wide.report);
      EXPECT_EQ(serial.live, wide.live);
      EXPECT_EQ(serial.registry_json, wide.registry_json);
    }
  }
}

TEST(GatewayDeterminism, SweepByteIdenticalAcrossPoolWidths) {
  gateway::GatewaySweepSpec spec;
  spec.stream_counts = {6, 24};
  spec.policies = {SharePolicy::Static, SharePolicy::WeightedShare,
                   SharePolicy::Priority};
  spec.steps = 48;
  spec.stream_factory = mixed_spec;
  spec.base = GatewayConfig{.class_weights = {12.0, 8.0, 1.0}, .shards = 4};
  spec.rate_per_stream = 40;  // ~70% of the mean subscribed rate

  obs::Registry serial_registry;
  spec.threads = 1;
  spec.registry = &serial_registry;
  const gateway::GatewaySweepResult serial = gateway::sweep(spec);

  obs::Registry wide_registry;
  spec.threads = 4;
  spec.registry = &wide_registry;
  const gateway::GatewaySweepResult wide = gateway::sweep(spec);

  EXPECT_EQ(serial.points, wide.points);
  EXPECT_EQ(serial_registry.to_json(false).dump(),
            wide_registry.to_json(false).dump());

  ASSERT_EQ(serial.points.size(), 2u);
  for (const gateway::GatewaySweepPoint& point : serial.points) {
    EXPECT_EQ(point.policies.size(), 3u);
    for (const gateway::GatewayPolicyOutcome& outcome : point.policies) {
      EXPECT_TRUE(outcome.report.conserves());
      EXPECT_EQ(outcome.report.violations, 0);
    }
  }
}

TEST(GatewaySweep, RejectsUnrunnableSpecs) {
  gateway::GatewaySweepSpec spec;
  spec.stream_counts = {4};
  spec.stream_factory = mixed_spec;
  spec.base = GatewayConfig{.rate = 100, .class_weights = {12.0, 8.0, 1.0}};

  auto broken = spec;
  broken.stream_counts.clear();
  EXPECT_THROW(gateway::sweep(broken), std::invalid_argument);
  broken = spec;
  broken.policies.clear();
  EXPECT_THROW(gateway::sweep(broken), std::invalid_argument);
  broken = spec;
  broken.stream_factory = nullptr;
  EXPECT_THROW(gateway::sweep(broken), std::invalid_argument);
  broken = spec;
  broken.steps = 0;
  EXPECT_THROW(gateway::sweep(broken), std::invalid_argument);
  broken = spec;
  broken.base.rate = 0;
  broken.rate_per_stream = 0;
  EXPECT_THROW(gateway::sweep(broken), std::invalid_argument);
}

// Default threads (0) here on purpose: under the TSan job this test runs
// the parallel fan-out at RTSMOOTH_THREADS wide while churning.
TEST(GatewayChurn, EveryLedgerConservesAndSumsToTheReport) {
  Gateway gw(GatewayConfig{.rate = 800,
                           .class_weights = {12.0, 8.0, 1.0},
                           .sharing = SharePolicy::WeightedShare,
                           .shards = 8,
                           .threads = 0});
  std::vector<StreamId> ids;
  for (std::size_t i = 0; i < 60; ++i) {
    ids.push_back(*gw.add_stream(mixed_spec(i)));
  }
  gw.run(30);

  std::vector<StreamStats> departed;
  for (std::size_t i = 0; i < ids.size(); i += 4) {
    auto stats = gw.remove_stream(ids[i]);
    ASSERT_TRUE(stats.has_value()) << i;
    departed.push_back(*stats);
  }
  gw.run(30);

  for (const StreamStats& d : departed) {
    EXPECT_TRUE(d.conserves()) << "stream " << d.id;
    EXPECT_NE(d.left, kNever);
    EXPECT_EQ(d.backlog, 0);  // written off as unserved at departure
  }

  const std::vector<StreamStats> live = gw.all_stream_stats();
  StreamStats sum;
  for (const StreamStats& row : live) {
    EXPECT_TRUE(row.conserves()) << "stream " << row.id;
    EXPECT_EQ(row.left, kNever);
    EXPECT_EQ(row.unserved, 0);
    sum.admitted += row.admitted;
    sum.served += row.served;
    sum.dropped += row.dropped;
    sum.backlog += row.backlog;
  }
  for (const StreamStats& d : departed) {
    sum.admitted += d.admitted;
    sum.served += d.served;
    sum.dropped += d.dropped;
    sum.unserved += d.unserved;
  }

  const GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(report.admitted, sum.admitted);
  EXPECT_EQ(report.served, sum.served);
  EXPECT_EQ(report.dropped, sum.dropped);
  EXPECT_EQ(report.unserved, sum.unserved);
  EXPECT_EQ(report.backlog, sum.backlog);
  EXPECT_EQ(report.joins, 60);
  EXPECT_EQ(report.leaves, static_cast<std::int64_t>(departed.size()));

  // Removing an already-removed or unknown id is a polite nullopt.
  EXPECT_FALSE(gw.remove_stream(ids[0]).has_value());
  EXPECT_FALSE(gw.remove_stream(999999).has_value());
}

// The fidelity anchor: with Static sharing and sum(r_i) <= R there is no
// cross-stream coupling, so every stream must behave exactly like a solo
// paper configuration B = r*D on its own link of rate r. Run the identical
// arrivals through the independently-written ReferenceSimulator (tail-drop,
// balanced Bs = Bc = B) and compare ledgers byte for byte.
TEST(GatewayDifferential, UncontendedStaticMatchesReferencePerStream) {
  struct Case {
    Bytes rate;
    Time deadline;
    std::vector<Bytes> script;
  };
  const std::vector<Case> cases = {
      // Steady near-rate traffic: no drops anywhere.
      {4, 3, {4, 4, 4, 4, 4, 4, 4, 4}},
      // One burst over B + r: forces Eq. (3) sheds.
      {4, 3, {8, 0, 20, 4, 0, 0, 40, 0, 2}},
      // Tight buffer (D = 1): B = r, drops on any burst.
      {6, 1, {12, 12, 0, 3, 30}},
      // Long deadline absorbs a big front-loaded burst.
      {2, 16, {30, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 25}},
      // Sparse arrivals with gaps.
      {8, 4, {0, 0, 64, 0, 0, 0, 0, 16, 0, 0, 1}},
      // Unit-rate stream, everything contends with its own buffer only.
      {1, 5, {3, 3, 3, 0, 0, 0, 0, 0, 0, 9}},
  };

  Bytes subscribed = 0;
  for (const Case& c : cases) subscribed += c.rate;
  Gateway gw(GatewayConfig{.rate = subscribed,  // exactly uncontended
                           .class_weights = {1.0},
                           .sharing = SharePolicy::Static,
                           .shards = 4,
                           .threads = 1});
  std::vector<StreamId> ids;
  std::size_t longest = 0;
  for (const Case& c : cases) {
    ids.push_back(*gw.add_stream(
        StreamSpec{.rate = c.rate,
                   .deadline = c.deadline,
                   .weight_class = 0,
                   .arrivals = ArrivalModel::from_script(c.script)}));
    longest = std::max(longest, c.script.size());
  }
  gw.run(static_cast<Time>(longest) + 64);  // scripts plus full drain
  ASSERT_EQ(gw.report().backlog, 0);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    const Case& c = cases[i];

    // The same arrivals as unit slices (byte-granular tail drop).
    std::vector<SliceRun> runs;
    for (std::size_t t = 0; t < c.script.size(); ++t) {
      if (c.script[t] > 0) {
        runs.push_back(rtsmooth::testing::units(static_cast<Time>(t), c.script[t]));
      }
    }
    const Stream stream = rtsmooth::testing::stream_of(std::move(runs));
    const Plan plan{.buffer = c.rate * c.deadline,
                    .delay = c.deadline,
                    .rate = c.rate};
    refcore::ReferenceSimulator reference(stream, sim::SimConfig::balanced(plan),
                                          "tail-drop");
    const SimReport ref = reference.run();
    ASSERT_TRUE(ref.conserves());
    // Lossless balanced link: nothing is lost client-side, so every byte the
    // server sent was played — served maps exactly onto played.
    ASSERT_EQ(ref.dropped_client_overflow.bytes, 0);
    ASSERT_EQ(ref.dropped_client_late.bytes, 0);

    const auto stats = gw.stream_stats(ids[i]);
    ASSERT_TRUE(stats.has_value());
    EXPECT_TRUE(stats->conserves());
    EXPECT_EQ(stats->admitted, ref.offered.bytes);
    EXPECT_EQ(stats->dropped, ref.dropped_server.bytes);
    EXPECT_EQ(stats->served, ref.played.bytes);
    EXPECT_EQ(stats->backlog, 0);
    // Lemma 3.2 against the oracle: the reference drops nothing late
    // client-side on a balanced lossless plan, so the gateway must have
    // served every byte within its deadline — the lateness ledger is empty.
    EXPECT_EQ(stats->served_late, 0);
    EXPECT_EQ(stats->served_on_time, stats->served);
    EXPECT_EQ(stats->max_lateness, 0);
  }
}

// ------------------------------------------------- deadline lateness ledger

// Uncontended Static is N paper configurations, so Lemma 3.2's sojourn
// bound holds per stream: the head byte is served within D_i steps of
// arrival, every byte is on time, and the slack histogram never exceeds
// the largest deadline in the population.
TEST(GatewayLateness, UncontendedStaticIsAlwaysOnTime) {
  obs::Registry registry;
  Gateway gw(GatewayConfig{.rate = 96 + 48 + 24,
                           .class_weights = {12.0, 8.0, 1.0},
                           .sharing = SharePolicy::Static,
                           .shards = 4,
                           .threads = 1,
                           .telemetry = {.registry = &registry}});
  Time max_deadline = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const StreamSpec spec = mixed_spec(i);
    max_deadline = std::max(max_deadline, spec.deadline);
    ASSERT_TRUE(gw.add_stream(spec).has_value());
  }
  gw.run(200);

  const GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.served_late, 0);
  EXPECT_EQ(report.served_on_time, report.served);
  EXPECT_EQ(report.max_lateness, 0);
  for (const StreamStats& row : gw.all_stream_stats()) {
    EXPECT_EQ(row.served_late, 0) << "stream " << row.id;
    EXPECT_EQ(row.max_lateness, 0) << "stream " << row.id;
  }

  const obs::Histogram& slack = registry.histograms().at("gateway.slack_steps");
  const obs::Histogram& late =
      registry.histograms().at("gateway.lateness_steps");
  EXPECT_EQ(slack.count(), report.served_on_time);  // byte-weighted
  EXPECT_EQ(late.count(), 0);
  EXPECT_LE(slack.max(), max_deadline);  // slack = D_i - wait <= D_i
}

// Oversubscribed WeightedShare: backlogs outlive deadlines, so some bytes
// are served late. The conservation identity served = on_time + late must
// hold in aggregate and per class, and every instrument must agree with
// the ledger it mirrors.
TEST(GatewayLateness, ContendedLedgerConservesAndMatchesInstruments) {
  obs::Registry registry;
  Gateway gw(GatewayConfig{.rate = 600,  // ~25% of subscribed
                           .class_weights = {12.0, 8.0, 1.0},
                           .sharing = SharePolicy::WeightedShare,
                           .shards = 8,
                           .threads = 1,
                           .telemetry = {.registry = &registry}});
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(gw.add_stream(mixed_spec(i)).has_value());
  }
  gw.run(120);

  const GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.served_late, 0);
  EXPECT_GT(report.max_lateness, 0);
  EXPECT_EQ(report.served, report.served_on_time + report.served_late);

  Bytes class_on_time = 0;
  Bytes class_late = 0;
  Time class_max = 0;
  for (const gateway::ClassTotals& c : report.by_class) {
    EXPECT_EQ(c.served, c.on_time + c.late);
    class_on_time += c.on_time;
    class_late += c.late;
    class_max = std::max(class_max, c.max_lateness);
  }
  EXPECT_EQ(class_on_time, report.served_on_time);
  EXPECT_EQ(class_late, report.served_late);
  EXPECT_EQ(class_max, report.max_lateness);

  const obs::Histogram& slack = registry.histograms().at("gateway.slack_steps");
  const obs::Histogram& late =
      registry.histograms().at("gateway.lateness_steps");
  EXPECT_EQ(slack.count(), report.served_on_time);
  EXPECT_EQ(late.count(), report.served_late);
  EXPECT_EQ(late.max(), report.max_lateness);
  EXPECT_EQ(registry.gauges().at("gateway.max_lateness_steps").value(),
            report.max_lateness);
  EXPECT_EQ(registry.counters().at("gateway.on_time_bytes").value(),
            report.served_on_time);
  EXPECT_EQ(registry.counters().at("gateway.late_bytes").value(),
            report.served_late);

  // The per-class lateness histograms partition the aggregate one.
  std::int64_t per_class_weight = 0;
  for (std::size_t k = 0; k < report.by_class.size(); ++k) {
    const obs::Histogram& h = registry.histograms().at(
        "gateway.c" + std::to_string(k) + ".lateness_steps");
    EXPECT_EQ(h.count(), report.by_class[k].late) << "class " << k;
    per_class_weight += h.count();
  }
  EXPECT_EQ(per_class_weight, late.count());
}

TEST(GatewaySharing, WeightedShareIsWorkConserving) {
  // Two classes, aggregate arrivals 3x the link: every step must ship
  // exactly R — no byte idles while anyone has backlog.
  constexpr Bytes kRate = 90;
  constexpr Time kSteps = 25;
  Gateway gw(GatewayConfig{.rate = kRate,
                           .class_weights = {3.0, 1.0},
                           .sharing = SharePolicy::WeightedShare,
                           .shards = 4,
                           .threads = 1});
  gw.add_stream(StreamSpec{.rate = 60,
                           .deadline = 4,
                           .weight_class = 0,
                           .arrivals = ArrivalModel::constant(180)});
  gw.add_stream(StreamSpec{.rate = 30,
                           .deadline = 4,
                           .weight_class = 1,
                           .arrivals = ArrivalModel::constant(90)});
  gw.run(kSteps);

  const GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.served, kRate * kSteps);
  EXPECT_EQ(report.max_step_served, kRate);
  EXPECT_EQ(report.violations, 0);
}

TEST(GatewaySharing, PriorityStarvesTheLightClassUnderSaturation) {
  // The heavy class alone saturates the link every step; under strict
  // priority the light class must be served exactly nothing.
  Gateway gw(GatewayConfig{.rate = 50,
                           .class_weights = {10.0, 1.0},
                           .sharing = SharePolicy::Priority,
                           .shards = 2,
                           .threads = 1});
  const StreamId heavy = *gw.add_stream(
      StreamSpec{.rate = 50,
                 .deadline = 8,
                 .weight_class = 0,
                 .arrivals = ArrivalModel::constant(50)});
  const StreamId light = *gw.add_stream(
      StreamSpec{.rate = 10,
                 .deadline = 8,
                 .weight_class = 1,
                 .arrivals = ArrivalModel::constant(10)});
  gw.run(20);

  EXPECT_EQ(gw.stream_stats(heavy)->served, 50 * 20);
  EXPECT_EQ(gw.stream_stats(light)->served, 0);
  EXPECT_TRUE(gw.report().conserves());
}

TEST(GatewaySharing, StaticNeverRedistributesIdleCapacity) {
  // Stream A is silent; stream B is overloaded. Static caps B at its
  // nominal rate even though half the link idles; weighted-share hands B
  // the whole link. Identical populations otherwise.
  const auto build = [](SharePolicy policy) {
    Gateway gw(GatewayConfig{.rate = 20,
                             .class_weights = {1.0},
                             .sharing = policy,
                             .shards = 2,
                             .threads = 1});
    gw.add_stream(StreamSpec{.rate = 10,
                             .deadline = 2,
                             .weight_class = 0,
                             .arrivals = ArrivalModel::constant(0)});
    const StreamId busy = *gw.add_stream(
        StreamSpec{.rate = 10,
                   .deadline = 64,
                   .weight_class = 0,
                   .arrivals = ArrivalModel::constant(40)});
    gw.run(12);
    return gw.stream_stats(busy)->served;
  };
  EXPECT_EQ(build(SharePolicy::Static), 10 * 12);         // capped at r
  EXPECT_EQ(build(SharePolicy::WeightedShare), 20 * 12);  // work-conserving
}

TEST(GatewayAdmission, CapacityCheckRefusesBeyondOverbook) {
  obs::Registry registry;
  Gateway gw(GatewayConfig{.rate = 100,
                           .class_weights = {1.0},
                           .admission = gateway::AdmissionPolicy::CapacityCheck,
                           .overbook = 1.5,
                           .telemetry = {.registry = &registry}});
  const StreamSpec spec{.rate = 60,
                        .deadline = 4,
                        .weight_class = 0,
                        .arrivals = ArrivalModel::constant(30)};
  EXPECT_TRUE(gw.add_stream(spec).has_value());   // 60 <= 150
  EXPECT_TRUE(gw.add_stream(spec).has_value());   // 120 <= 150
  EXPECT_FALSE(gw.add_stream(spec).has_value());  // 180 > 150: refused
  EXPECT_EQ(gw.subscribed_rate(), 120);
  EXPECT_EQ(gw.stream_count(), 2u);

  const GatewayReport report = gw.report();
  EXPECT_EQ(report.joins, 2);
  EXPECT_EQ(report.rejected_joins, 1);
  EXPECT_EQ(registry.counter("gateway.rejected_joins").value(), 1);
}

TEST(GatewayValidation, BadConfigsAndSpecsThrow) {
  EXPECT_THROW(Gateway(GatewayConfig{.rate = 0}), std::invalid_argument);
  EXPECT_THROW(Gateway(GatewayConfig{.class_weights = {}}),
               std::invalid_argument);
  EXPECT_THROW(Gateway(GatewayConfig{.class_weights = {1.0, -2.0}}),
               std::invalid_argument);
  EXPECT_THROW(Gateway(GatewayConfig{.overbook = 0.0}), std::invalid_argument);
  EXPECT_THROW(Gateway(GatewayConfig{.shards = 0}), std::invalid_argument);

  Gateway gw(GatewayConfig{.rate = 100, .class_weights = {1.0, 2.0}});
  EXPECT_THROW(gw.add_stream(StreamSpec{.rate = 0}), std::invalid_argument);
  EXPECT_THROW(gw.add_stream(StreamSpec{.rate = 1, .deadline = 0}),
               std::invalid_argument);
  EXPECT_THROW(gw.add_stream(StreamSpec{.rate = 1, .weight_class = 2}),
               std::invalid_argument);
  StreamSpec bad_script{.rate = 1,
                        .arrivals = ArrivalModel::from_script({4, -1})};
  EXPECT_THROW(gw.add_stream(bad_script), std::invalid_argument);
}

TEST(GatewayTelemetry, FlightRecorderCapturesDropIncidents) {
  obs::FlightRecorder recorder(obs::FlightRecorderConfig{.window = 16});

  // One stream with B = 4 facing 16 bytes/step on a 4-byte link: drops
  // every step from the second on.
  Gateway gw(GatewayConfig{.rate = 4,
                           .class_weights = {1.0},
                           .sharing = SharePolicy::WeightedShare,
                           .shards = 1,
                           .threads = 1,
                           .telemetry = {.recorder = &recorder}});
  gw.add_stream(StreamSpec{.rate = 4,
                           .deadline = 1,
                           .weight_class = 0,
                           .arrivals = ArrivalModel::constant(16)});
  // The owner turns a dropping step into an incident through the
  // violation hook, after the step's record is in the ring.
  for (int i = 0; i < 8; ++i) {
    gw.step();
    const obs::StepRecord last = recorder.window().back();
    if (last.dropped_server > 0) {
      recorder.on_violation(last.t, "gateway.drop", last.dropped_server);
    }
  }

  ASSERT_FALSE(recorder.incidents().empty());
  const obs::Json& incident = recorder.incidents().front();
  EXPECT_EQ(incident.at("trigger").at("type").as_string(), "violation");
  EXPECT_EQ(incident.at("trigger").at("kind").as_string(), "gateway.drop");
  EXPECT_EQ(incident.at("context").at("component").as_string(), "gateway");
  EXPECT_EQ(incident.at("context").at("sharing").as_string(),
            "weighted-share");
  // The window ends at the dropping step.
  const obs::Json& window = incident.at("window");
  ASSERT_GT(window.size(), 0u);
  const obs::Json& last = window.at(window.size() - 1);
  EXPECT_EQ(last.at("t").as_int(),
            incident.at("trigger").at("t").as_int());
  EXPECT_GT(last.at("dropped_server").as_int(), 0);
}

TEST(GatewayTelemetry, CountersMatchTheReport) {
  obs::Registry registry;
  Gateway gw(GatewayConfig{.rate = 64,
                           .class_weights = {2.0, 1.0},
                           .sharing = SharePolicy::WeightedShare,
                           .shards = 4,
                           .threads = 1,
                           .telemetry = {.registry = &registry}});
  std::vector<StreamId> ids;
  for (std::size_t i = 0; i < 8; ++i) {
    ids.push_back(*gw.add_stream(StreamSpec{
        .rate = 16,
        .deadline = 2,
        .weight_class = i % 2,
        .arrivals = ArrivalModel::vbr(24, 0x70 + i)}));
  }
  gw.run(20);
  gw.remove_stream(ids[3]);
  gw.run(20);

  const GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(registry.counter("gateway.admitted_bytes").value(),
            report.admitted);
  EXPECT_EQ(registry.counter("gateway.served_bytes").value(), report.served);
  EXPECT_EQ(registry.counter("gateway.dropped_bytes").value(),
            report.dropped);
  EXPECT_EQ(registry.counter("gateway.unserved_bytes").value(),
            report.unserved);
  EXPECT_EQ(registry.counter("gateway.joins").value(), report.joins);
  EXPECT_EQ(registry.counter("gateway.leaves").value(), report.leaves);
  EXPECT_EQ(registry.counter("gateway.violations").value(),
            report.violations);
}

// ---------------------------------------------------------------- CohortRing

std::vector<Time> drain_arrivals(CohortRing& ring) {
  std::vector<Time> out;
  while (!ring.empty()) {
    out.push_back(ring.front().arrival);
    ring.pop_front();
  }
  return out;
}

bool power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

TEST(CohortRing, SpillWhileWrappedKeepsFifoOrder) {
  CohortRing ring;
  static_assert(CohortRing::kInline == 2, "the wrap below assumes 2 inline");
  ring.push_back(0, 10);
  ring.push_back(1, 11);
  ring.pop_front();
  ring.push_back(2, 12);  // inline and wrapped: head at slot 1, tail at 0
  ASSERT_EQ(ring.capacity(), CohortRing::kInline);
  ring.push_back(3, 13);  // spills to the heap
  ring.push_back(4, 14);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(drain_arrivals(ring), (std::vector<Time>{1, 2, 3, 4}));
}

TEST(CohortRing, FrontBackAndPopBackAcrossTheWrap) {
  for (const Time fill : {Time{2}, Time{8}}) {  // inline, then a heap slab
    SCOPED_TRACE(fill);
    const auto full = static_cast<std::size_t>(fill);
    CohortRing ring;
    for (Time t = 0; t < fill; ++t) ring.push_back(t, 1);
    ASSERT_EQ(ring.capacity(), full);
    ring.pop_front();
    ring.push_back(fill, 1);  // wraps: the newest cohort lands in slot 0
    ASSERT_EQ(ring.capacity(), full) << "no growth expected";
    EXPECT_EQ(ring.front().arrival, 1);
    EXPECT_EQ(ring.back().arrival, fill);
    ring.back().bytes = 7;  // back() is the newest cohort, in place
    EXPECT_EQ(ring.back().bytes, 7);
    ring.pop_back();  // the tail steps back from slot 0 to the last slot
    EXPECT_EQ(ring.back().arrival, fill - 1);
    EXPECT_EQ(ring.back().bytes, 1);
    ring.push_back(fill + 1, 2);  // refills slot 0
    EXPECT_EQ(ring.back().arrival, fill + 1);
    EXPECT_EQ(ring.back().bytes, 2);
    std::vector<Time> expected;
    for (Time t = 1; t < fill; ++t) expected.push_back(t);
    expected.push_back(fill + 1);
    EXPECT_EQ(drain_arrivals(ring), expected);
  }
}

TEST(CohortRing, MovesKeepInlineAndSpilledContents) {
  CohortRing inline_ring;
  inline_ring.push_back(5, 50);
  inline_ring.push_back(6, 60);
  CohortRing moved(std::move(inline_ring));
  EXPECT_TRUE(inline_ring.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.front().bytes, 50);
  EXPECT_EQ(moved.back().bytes, 60);

  CohortRing spilled;
  for (Time t = 0; t < 9; ++t) spilled.push_back(t, t + 100);
  spilled.pop_front();
  CohortRing target;
  target.push_back(99, 1);
  target = std::move(spilled);
  EXPECT_TRUE(spilled.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target.capacity(), 16u);
  EXPECT_EQ(drain_arrivals(target),
            (std::vector<Time>{1, 2, 3, 4, 5, 6, 7, 8}));

  // Move-assigning an inline ring over a spilled one frees the slab and
  // takes the inline cohorts; the moved-from ring is reusable.
  CohortRing big;
  for (Time t = 0; t < 5; ++t) big.push_back(t, 1);
  big = std::move(moved);
  EXPECT_EQ(big.capacity(), CohortRing::kInline);
  EXPECT_EQ(drain_arrivals(big), (std::vector<Time>{5, 6}));
  moved.push_back(42, 1);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(drain_arrivals(moved), (std::vector<Time>{42}));

  // Vector growth moves every ring it holds.
  std::vector<CohortRing> column(3);
  column[0].push_back(1, 1);
  for (Time t = 0; t < 5; ++t) column[2].push_back(t, 1);
  for (int k = 0; k < 64; ++k) column.emplace_back();
  EXPECT_EQ(drain_arrivals(column[0]), (std::vector<Time>{1}));
  EXPECT_EQ(drain_arrivals(column[2]), (std::vector<Time>{0, 1, 2, 3, 4}));
}

// A seeded random walk of pushes and head/tail pops against std::deque:
// every read matches, and the capacity is a power of two at every size.
TEST(CohortRing, MatchesADequeAndCapacityStaysAPowerOfTwo) {
  CohortRing ring;
  std::deque<CohortRing::Cohort> model;
  std::uint64_t state = 12345;
  Time now = 0;
  for (int op = 0; op < 20000; ++op) {
    state = gateway::mix64(state);
    // Bias toward pushes early so the ring climbs through several sizes.
    const unsigned roll = static_cast<unsigned>(state % 10);
    if (model.empty() || roll < (op < 10000 ? 6U : 4U)) {
      ring.push_back(now, static_cast<Bytes>(state >> 40));
      model.push_back({now, static_cast<Bytes>(state >> 40)});
      ++now;
    } else if (roll % 2 == 0) {
      ring.pop_front();
      model.pop_front();
    } else {
      ring.pop_back();
      model.pop_back();
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_TRUE(power_of_two(ring.capacity())) << ring.capacity();
    ASSERT_GE(ring.capacity(), ring.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.front().arrival, model.front().arrival);
      ASSERT_EQ(ring.front().bytes, model.front().bytes);
      ASSERT_EQ(ring.back().arrival, model.back().arrival);
      ASSERT_EQ(ring.back().bytes, model.back().bytes);
    }
  }
  EXPECT_GT(ring.capacity(), 64u) << "the walk never grew the ring far";
}

// ------------------------------------------------------- script side-table

TEST(StreamPoolScripts, DepartedScriptIsReleasedAndItsEntryReused) {
  gateway::StreamPool pool(2);
  const StreamSpec scripted{
      .arrivals = ArrivalModel::from_script(std::vector<Bytes>(64, 7))};
  const StreamId a = pool.add(scripted, 0);
  const StreamId b = pool.add(scripted, 0);
  ASSERT_EQ(pool.scripts().size(), 2u);

  ASSERT_TRUE(pool.remove(a, 3).has_value());
  // The departed stream's script is freed, not kept for the table's life.
  EXPECT_TRUE(pool.scripts()[0].empty());
  EXPECT_EQ(pool.scripts()[0].capacity(), 0u);
  EXPECT_EQ(pool.scripts()[1].size(), 64u);  // b's script is untouched

  // Churn through scripted streams: the table never outgrows the peak
  // count of live scripted streams, and each live stream reads its own.
  StreamId live = b;
  for (Bytes k = 1; k <= 100; ++k) {
    const StreamId next = pool.add(
        StreamSpec{.arrivals = ArrivalModel::from_script({k, k})}, 4);
    ASSERT_TRUE(pool.remove(live, 4).has_value());
    live = next;
  }
  EXPECT_EQ(pool.scripts().size(), 2u);
  const std::int32_t entry =
      pool.shard(live % 2).arr_script[pool.shard(live % 2).size() - 1];
  ASSERT_GE(entry, 0);
  EXPECT_EQ(pool.scripts()[static_cast<std::size_t>(entry)],
            (std::vector<Bytes>{100, 100}));
  const gateway::Shard& shard = pool.shard(live % 2);
  EXPECT_EQ(gateway::arrival_bytes(shard, pool.scripts().data(),
                                   shard.size() - 1, 1),
            100);
  std::size_t held = 0;
  for (const std::vector<Bytes>& script : pool.scripts()) {
    held += script.size();
  }
  EXPECT_EQ(held, 2u) << "only the one live script holds bytes";
}

}  // namespace

// Tests for the flight recorder (obs/flight_recorder.h): ring semantics,
// trigger paths, incident-document shape, the InvariantMonitor hookup that
// freezes a Lemma 3.3 violation into a forensic window, and the sweep-level
// determinism contract (merged incidents byte-identical for any thread
// count).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "faults/fault_schedule.h"
#include "obs/flight_recorder.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

using faults::FaultPhase;
using faults::ScheduledFaultLink;
using obs::FlightRecorder;
using obs::FlightRecorderConfig;
using obs::Json;
using obs::StepRecord;

StepRecord step_at(std::int64_t t) {
  StepRecord record;
  record.t = t;
  record.sent = 10 * t;
  return record;
}

Stream clip_stream() {
  return trace::slice_frames(trace::stock_clip("cnn-news", 150),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::WholeFrame);
}

Plan clip_plan(const Stream& s) {
  return Planner::from_buffer_rate(4 * s.max_frame_bytes(),
                                   sim::relative_rate(s, 1.1));
}

// ------------------------------------------------------- ring semantics

TEST(FlightRecorderRing, KeepsExactlyTheLastWindowSteps) {
  FlightRecorder recorder(FlightRecorderConfig{.window = 8});
  for (std::int64_t t = 0; t < 2 * 8 + 3; ++t) recorder.record(step_at(t));
  const std::vector<StepRecord> window = recorder.window();
  ASSERT_EQ(window.size(), 8u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i], step_at(11 + static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(recorder.steps_recorded(), 19);
}

TEST(FlightRecorderRing, PartialFillStaysChronological) {
  FlightRecorder recorder(FlightRecorderConfig{.window = 8});
  for (std::int64_t t = 0; t < 3; ++t) recorder.record(step_at(t));
  const std::vector<StepRecord> window = recorder.window();
  ASSERT_EQ(window.size(), 3u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].t, static_cast<std::int64_t>(i));
  }
}

TEST(FlightRecorderRing, ZeroWindowThrows) {
  EXPECT_THROW(FlightRecorder(FlightRecorderConfig{.window = 0}),
               std::invalid_argument);
}

// ------------------------------------------------------------- triggers

TEST(FlightRecorderTrigger, IdleSpanFillsTheCapturedWindow) {
  // record_idle() leaves the ring and the step count exactly as one zero
  // record per slot would, for spans shorter and longer than the window.
  for (const std::int64_t span : {1, 4, 5, 1000}) {
    FlightRecorder idle(FlightRecorderConfig{.window = 4});
    FlightRecorder per_slot(FlightRecorderConfig{.window = 4});
    for (std::int64_t t = 0; t < 3; ++t) {
      idle.record(step_at(t));
      per_slot.record(step_at(t));
    }
    idle.record_idle(3, 3 + span, false);
    for (std::int64_t t = 3; t < 3 + span; ++t) {
      per_slot.record(StepRecord{.t = t, .link_idle = false});
    }
    EXPECT_EQ(idle.window(), per_slot.window()) << "span " << span;
    EXPECT_EQ(idle.steps_recorded(), 3 + span) << "span " << span;
    EXPECT_EQ(per_slot.steps_recorded(), 3 + span) << "span " << span;
  }
  // A trillion-slot span costs one window, and a capture after it freezes
  // the span's last slots.
  constexpr std::int64_t kEnd = 1'000'000'000'000;
  FlightRecorder recorder(FlightRecorderConfig{.window = 4});
  recorder.record(step_at(0));
  recorder.record_idle(1, kEnd, true);
  recorder.on_violation(kEnd - 1, "client_underflow", 1);
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const Json& incident = recorder.incidents().front();
  EXPECT_EQ(incident.at("steps_recorded").as_int(), kEnd);
  EXPECT_TRUE(incident.at("truncated").as_bool());
  const Json& window = incident.at("window");
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window.at(i).at("t").as_int(),
              kEnd - 4 + static_cast<std::int64_t>(i));
    EXPECT_EQ(window.at(i).at("sent").as_int(), 0);
    EXPECT_TRUE(window.at(i).at("link_idle").as_bool());
  }
}

TEST(FlightRecorderTrigger, ViolationHookCapturesWithKindAndMagnitude) {
  FlightRecorder recorder(FlightRecorderConfig{.window = 4});
  for (std::int64_t t = 0; t < 3; ++t) recorder.record(step_at(t));
  recorder.on_violation(2, "client_underflow", 7);
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const Json& trigger = recorder.incidents().front().at("trigger");
  EXPECT_EQ(trigger.at("type").as_string(), "violation");
  EXPECT_EQ(trigger.at("kind").as_string(), "client_underflow");
  EXPECT_EQ(trigger.at("magnitude").as_int(), 7);
  EXPECT_FALSE(recorder.incidents().front().at("truncated").as_bool());
}

TEST(FlightRecorderTrigger, ViolationTriggerCanBeDisabled) {
  FlightRecorder recorder(
      FlightRecorderConfig{.window = 4, .trigger_on_violation = false});
  recorder.record(step_at(0));
  recorder.on_violation(0, "client_underflow", 1);
  EXPECT_TRUE(recorder.incidents().empty());
  EXPECT_EQ(recorder.triggers_total(), 0);
}

TEST(FlightRecorderTrigger, MaxIncidentsCapsStorageNotTheCount) {
  FlightRecorder recorder(
      FlightRecorderConfig{.window = 2, .max_incidents = 2});
  for (std::int64_t t = 0; t < 5; ++t) {
    recorder.record(step_at(t));
    recorder.on_violation(t, "client_underflow", 1);
  }
  EXPECT_EQ(recorder.incidents().size(), 2u);
  EXPECT_EQ(recorder.triggers_total(), 5);
}

TEST(FlightRecorderTrigger, CooldownSuppressesTheStorm) {
  FlightRecorder recorder(FlightRecorderConfig{
      .window = 2, .max_incidents = 8, .cooldown = 10});
  for (std::int64_t t = 0; t < 25; ++t) {
    recorder.record(step_at(t));
    recorder.on_violation(t, "client_underflow", 1);
  }
  // Captures at t = 0, 10, 20; everything in between is counted only.
  ASSERT_EQ(recorder.incidents().size(), 3u);
  EXPECT_EQ(recorder.incidents()[0].at("trigger").at("t").as_int(), 0);
  EXPECT_EQ(recorder.incidents()[1].at("trigger").at("t").as_int(), 10);
  EXPECT_EQ(recorder.incidents()[2].at("trigger").at("t").as_int(), 20);
  EXPECT_EQ(recorder.triggers_total(), 25);
}

TEST(FlightRecorderTrigger, AnnotationsLandInTheIncidentContext) {
  FlightRecorder recorder(FlightRecorderConfig{.window = 2});
  recorder.annotate("cell", static_cast<std::int64_t>(3));
  recorder.annotate("severity", 0.25);
  recorder.record(step_at(0));
  recorder.on_violation(0, "client_underflow", 1);
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const Json& context = recorder.incidents().front().at("context");
  EXPECT_EQ(context.at("cell").as_int(), 3);
  EXPECT_EQ(context.at("severity").as_double(), 0.25);
}

// ---------------------------------------------------------------- merge

TEST(FlightRecorderMerge, AppendsIncidentsAndSumsCounters) {
  FlightRecorder a(FlightRecorderConfig{.window = 2, .max_incidents = 3});
  FlightRecorder b(FlightRecorderConfig{.window = 2, .max_incidents = 3});
  a.record(step_at(0));
  a.on_violation(0, "client_underflow", 1);
  b.record(step_at(0));
  b.record(step_at(1));
  b.on_violation(1, "server_sojourn", 2);
  a.merge(b);
  ASSERT_EQ(a.incidents().size(), 2u);
  EXPECT_EQ(a.incidents()[0].at("trigger").at("kind").as_string(),
            "client_underflow");
  EXPECT_EQ(a.incidents()[1].at("trigger").at("kind").as_string(),
            "server_sojourn");
  EXPECT_EQ(a.steps_recorded(), 3);
  EXPECT_EQ(a.triggers_total(), 2);
}

TEST(FlightRecorderMerge, RespectsTheIncidentCap) {
  FlightRecorder a(FlightRecorderConfig{.window = 2, .max_incidents = 1});
  FlightRecorder b(FlightRecorderConfig{.window = 2, .max_incidents = 1});
  a.record(step_at(0));
  a.on_violation(0, "client_underflow", 1);
  b.record(step_at(0));
  b.on_violation(0, "client_overflow", 1);
  a.merge(b);
  EXPECT_EQ(a.incidents().size(), 1u);
  EXPECT_EQ(a.triggers_total(), 2);
}

// ------------------------------------------- end-to-end incident capture

// An erasure link with recovery off starves the client: transmitted bytes
// miss their deadlines, exactly Lemma 3.3's failure mode. The recorder
// must freeze the trailing window ending on the violating step.
TEST(FlightRecorderEndToEnd, ErasureUnderflowFreezesTheTrailingWindow) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  FlightRecorder recorder(
      FlightRecorderConfig{.window = 16, .max_incidents = 1});
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  config.underflow = UnderflowPolicy::Skip;
  config.telemetry = obs::Telemetry{.recorder = &recorder};
  sim::SmoothingSimulator simulator(
      s, config, make_policy("greedy"),
      std::make_unique<ScheduledFaultLink>(
          config.link_delay, std::vector<FaultPhase>{{.loss_probability = 0.3}},
          Rng(2026)));
  const SimReport report = simulator.run();

  ASSERT_GT(report.invariants.client_underflow, 0);
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const Json& incident = recorder.incidents().front();
  EXPECT_EQ(incident.at("schema").as_string(), "rtsmooth-incident-v1");
  EXPECT_EQ(incident.at("trigger").at("kind").as_string(),
            "client_underflow");
  const std::int64_t trigger_t = incident.at("trigger").at("t").as_int();
  EXPECT_EQ(trigger_t, report.invariants.first);

  // The window covers exactly the last min(window, t+1) consecutive steps,
  // ending on the violating step itself.
  const Json& window = incident.at("window");
  const std::int64_t len = static_cast<std::int64_t>(window.size());
  ASSERT_GT(len, 0);
  ASSERT_LE(len, 16);
  for (std::int64_t i = 0; i < len; ++i) {
    EXPECT_EQ(window.at(static_cast<std::size_t>(i)).at("t").as_int(),
              trigger_t - (len - 1) + i);
  }
  EXPECT_EQ(incident.at("truncated").as_bool(), trigger_t + 1 > 16);
  EXPECT_GE(incident.at("steps_recorded").as_int(), len);

  // Self-contained context: the run parameters travel with the report.
  const Json& context = incident.at("context");
  EXPECT_EQ(context.at("server_buffer").as_int(),
            static_cast<std::int64_t>(plan.buffer));
  EXPECT_EQ(context.at("policy").as_string(), "greedy");
}

// The recorder must not perturb the simulation: same report with and
// without one attached.
TEST(FlightRecorderEndToEnd, RecorderDoesNotChangeTheRun) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  auto run = [&](obs::Telemetry telemetry) {
    sim::SimConfig config = sim::SimConfig::balanced(plan);
    config.telemetry = telemetry;
    sim::SmoothingSimulator simulator(
        s, config, make_policy("greedy"),
        std::make_unique<ScheduledFaultLink>(
            config.link_delay,
            std::vector<FaultPhase>{{.loss_probability = 0.2}}, Rng(7)));
    return simulator.run();
  };
  FlightRecorder recorder;
  const SimReport bare = run({});
  const SimReport observed = run(obs::Telemetry{.recorder = &recorder});
  EXPECT_EQ(bare, observed);
  EXPECT_GT(recorder.steps_recorded(), 0);
}

// ------------------------------------------------ sweep fold determinism

// DESIGN.md Sect. 9 extended to incidents: the merged incident list after
// a sweep must be byte-identical for any thread count.
TEST(FlightRecorderSweep, MergedIncidentsAreThreadCountInvariant) {
  const Stream s = clip_stream();
  const Plan plan = clip_plan(s);
  auto run_sweep = [&](unsigned threads) {
    FlightRecorder recorder(
        FlightRecorderConfig{.window = 16, .max_incidents = 32});
    sim::SweepSpec spec{
        .axis = sim::SweepAxis::FaultSeverity,
        .values = {0.0, 0.15, 0.3},
        .policies = {"greedy"},
        .plan = plan,
        .link_factory = [](double severity,
                           Time link_delay) -> std::unique_ptr<Link> {
          return std::make_unique<ScheduledFaultLink>(
              link_delay,
              std::vector<FaultPhase>{{.loss_probability = severity}},
              Rng(41));
        }};
    spec.threads = threads;
    spec.recorder = &recorder;
    sim::sweep(s, spec);
    std::string dump;
    for (const Json& incident : recorder.incidents()) {
      dump += incident.dump();
      dump += '\n';
    }
    return std::make_pair(dump, recorder.triggers_total());
  };
  const auto [serial_dump, serial_triggers] = run_sweep(1);
  const auto [parallel_dump, parallel_triggers] = run_sweep(4);
  EXPECT_GT(serial_triggers, 0);
  EXPECT_FALSE(serial_dump.empty());
  EXPECT_EQ(serial_dump, parallel_dump);
  EXPECT_EQ(serial_triggers, parallel_triggers);
  // Cell coordinates survive the fold: every incident names its grid cell.
  EXPECT_NE(serial_dump.find("\"cell\""), std::string::npos);
  EXPECT_NE(serial_dump.find("\"severity\""), std::string::npos);
}

// ------------------------------------------------------------ file sink

TEST(FlightRecorderIo, WriteIncidentFailureNamesThePath) {
  const Json incident = Json::object();
  try {
    FlightRecorder::write_incident(incident,
                                   "/nonexistent-dir/incident.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/incident.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rtsmooth

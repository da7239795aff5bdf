// Tests for the Chrome-trace exporter (obs/chrome_trace.h): well-formed
// trace_event output, the component-to-track mapping, stall slicing,
// violation instants, and the JSONL / incident conversion paths — including
// a golden end-to-end export of a simulator trace.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "faults/fault_schedule.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

using obs::ChromeTraceOptions;
using obs::Json;

Json step_event(std::int64_t t) {
  Json e = Json::object();
  e["type"] = "step";
  e["t"] = t;
  e["arrived"] = 100;
  e["sent"] = 80;
  e["delivered"] = 80;
  e["played"] = 60;
  e["dropped_server"] = 0;
  e["dropped_client"] = 0;
  e["retransmitted"] = 0;
  e["server_occupancy"] = 20;
  e["client_occupancy"] = 40;
  e["link_idle"] = false;
  e["stalled"] = false;
  return e;
}

/// Every trace_event needs name/ph/ts/pid/tid; counters and instants also
/// carry args. Asserts the invariants Perfetto relies on.
void expect_well_formed(const Json& trace) {
  ASSERT_TRUE(trace.is_array());
  ASSERT_GT(trace.size(), 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Json& e = trace.at(i);
    ASSERT_TRUE(e.is_object()) << "event " << i;
    EXPECT_TRUE(e.find("name") != nullptr) << "event " << i;
    ASSERT_TRUE(e.find("ph") != nullptr) << "event " << i;
    EXPECT_TRUE(e.find("ts") != nullptr) << "event " << i;
    EXPECT_TRUE(e.find("pid") != nullptr) << "event " << i;
    EXPECT_TRUE(e.find("tid") != nullptr) << "event " << i;
    const std::string ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "M" || ph == "C" || ph == "i" || ph == "X")
        << "event " << i << " has unexpected phase " << ph;
    if (ph == "X") {
      EXPECT_TRUE(e.find("dur") != nullptr) << "event " << i;
    }
    if (ph == "i") {
      EXPECT_TRUE(e.find("s") != nullptr) << "event " << i;
    }
  }
}

std::size_t count_events(const Json& trace, std::string_view name,
                         std::string_view ph) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Json& e = trace.at(i);
    if (e.at("name").as_string() == name && e.at("ph").as_string() == ph) ++n;
  }
  return n;
}

// ------------------------------------------------------------ structure

TEST(ChromeTrace, EmitsTheFourProcessNameTracks) {
  const Json trace = obs::chrome_trace_from_events({});
  expect_well_formed(trace);
  ASSERT_EQ(trace.size(), 4u);  // metadata only for an empty event list
  std::vector<std::string> names;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).at("name").as_string(), "process_name");
    EXPECT_EQ(trace.at(i).at("ph").as_string(), "M");
    names.push_back(trace.at(i).at("args").at("name").as_string());
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"server", "link", "client", "recovery"}));
}

TEST(ChromeTrace, StepBecomesPerTrackCounters) {
  const Json trace = obs::chrome_trace_from_events({step_event(3)});
  expect_well_formed(trace);
  // server occupancy + sent, link delivered + idle, client occupancy +
  // played, recovery retransmitted: 7 counters for a full step record.
  EXPECT_EQ(count_events(trace, "occupancy", "C"), 2u);
  EXPECT_EQ(count_events(trace, "sent", "C"), 1u);
  EXPECT_EQ(count_events(trace, "delivered", "C"), 1u);
  EXPECT_EQ(count_events(trace, "idle", "C"), 1u);
  EXPECT_EQ(count_events(trace, "played", "C"), 1u);
  EXPECT_EQ(count_events(trace, "retransmitted", "C"), 1u);
  // Simulated step 3 lands at ts = 3 * step_us.
  for (std::size_t i = 4; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).at("ts").as_int(), 3000);
  }
}

TEST(ChromeTrace, StepUsOptionScalesTheRuler) {
  const Json trace =
      obs::chrome_trace_from_events({step_event(5)}, ChromeTraceOptions{10});
  EXPECT_EQ(trace.at(4).at("ts").as_int(), 50);
}

TEST(ChromeTrace, ServerDropBecomesAnInstant) {
  Json step = step_event(2);
  step["dropped_server"] = 512;
  const Json trace = obs::chrome_trace_from_events({step});
  EXPECT_EQ(count_events(trace, "drop", "i"), 1u);
}

TEST(ChromeTrace, ConsecutiveStallsMergeIntoOneSlice) {
  std::vector<Json> events;
  for (std::int64_t t = 0; t < 6; ++t) {
    Json step = step_event(t);
    step["stalled"] = (t >= 1 && t <= 3) || t == 5;
    events.push_back(step);
  }
  const Json trace = obs::chrome_trace_from_events(events);
  expect_well_formed(trace);
  ASSERT_EQ(count_events(trace, "stall", "X"), 2u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Json& e = trace.at(i);
    if (e.at("name").as_string() != "stall") continue;
    if (e.at("ts").as_int() == 1000) {
      EXPECT_EQ(e.at("dur").as_int(), 3000);
      EXPECT_EQ(e.at("args").at("steps").as_int(), 3);
    } else {
      EXPECT_EQ(e.at("ts").as_int(), 5000);
      EXPECT_EQ(e.at("dur").as_int(), 1000);
    }
  }
}

TEST(ChromeTrace, ViolationLandsOnTheIndictedTrack) {
  Json violation = Json::object();
  violation["type"] = "violation";
  violation["t"] = 7;
  violation["kind"] = "client_underflow";
  violation["magnitude"] = 3;
  const Json trace = obs::chrome_trace_from_events({violation});
  ASSERT_EQ(count_events(trace, "client_underflow", "i"), 1u);
  const Json& e = trace.at(4);
  EXPECT_EQ(e.at("pid").as_int(), 3);  // client track
  EXPECT_EQ(e.at("ts").as_int(), 7000);
  EXPECT_EQ(e.at("s").as_string(), "t");
  EXPECT_EQ(e.at("args").at("magnitude").as_int(), 3);
}

TEST(ChromeTrace, ConfigBecomesRunConfigMetadata) {
  Json config = Json::object();
  config["type"] = "config";
  config["rate"] = 1000;
  const Json trace = obs::chrome_trace_from_events({config});
  ASSERT_EQ(count_events(trace, "run_config", "M"), 1u);
  EXPECT_EQ(trace.at(4).at("args").at("rate").as_int(), 1000);
}

TEST(ChromeTrace, UnknownEventTypesAreSkipped) {
  Json unknown = Json::object();
  unknown["type"] = "mystery";
  const Json trace = obs::chrome_trace_from_events({unknown});
  EXPECT_EQ(trace.size(), 4u);
}

// ----------------------------------------------------------- JSONL path

TEST(ChromeTraceJsonl, ParsesLinesAndSkipsBlanks) {
  std::istringstream in(
      "{\"type\":\"step\",\"t\":0,\"sent\":5}\n"
      "\n"
      "{\"type\":\"step\",\"t\":1,\"sent\":6}\n");
  const Json trace = obs::chrome_trace_from_jsonl(in);
  expect_well_formed(trace);
  EXPECT_EQ(count_events(trace, "sent", "C"), 2u);
}

TEST(ChromeTraceJsonl, MalformedLineNamesTheLineNumber) {
  std::istringstream in("{\"type\":\"step\",\"t\":0}\nnot json\n");
  try {
    obs::chrome_trace_from_jsonl(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// --------------------------------------------------------- incident path

TEST(ChromeTraceIncident, RejectsForeignDocuments) {
  Json doc = Json::object();
  doc["schema"] = "rtsmooth-bench-v1";
  EXPECT_THROW(obs::chrome_trace_from_incident(doc), std::runtime_error);
  EXPECT_THROW(obs::chrome_trace_from_incident(Json::object()),
               std::runtime_error);
}

TEST(ChromeTraceIncident, WindowAndTriggerConvert) {
  obs::FlightRecorder recorder(
      obs::FlightRecorderConfig{.window = 4, .max_incidents = 1});
  recorder.annotate("policy", "greedy");
  for (std::int64_t t = 0; t < 3; ++t) {
    obs::StepRecord step;
    step.t = t;
    step.sent = 100;
    recorder.record(step);
  }
  recorder.on_violation(2, "client_underflow", 9);
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const Json trace =
      obs::chrome_trace_from_incident(recorder.incidents().front());
  expect_well_formed(trace);
  EXPECT_EQ(count_events(trace, "run_config", "M"), 1u);
  EXPECT_EQ(count_events(trace, "sent", "C"), 3u);
  ASSERT_EQ(count_events(trace, "client_underflow", "i"), 1u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.at(i).at("name").as_string() == "client_underflow") {
      EXPECT_EQ(trace.at(i).at("ts").as_int(), 2000);
    }
  }
}

// --------------------------------------------------- golden end-to-end

// A real simulator run traced to JSONL must convert into a well-formed
// trace whose serialization parses back — the export is real JSON, not
// merely JSON-shaped.
TEST(ChromeTraceGolden, SimulatorTraceExportsAndRoundTrips) {
  const Stream s = trace::slice_frames(trace::stock_clip("cnn-news", 100),
                                       trace::ValueModel::mpeg_default(),
                                       trace::Slicing::WholeFrame);
  const Plan plan = Planner::from_buffer_rate(4 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 1.1));
  std::ostringstream jsonl;
  obs::TraceWriter tracer(jsonl);
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  config.telemetry = obs::Telemetry{.tracer = &tracer};
  sim::SmoothingSimulator simulator(
      s, config, make_policy("greedy"),
      std::make_unique<faults::ScheduledFaultLink>(
          config.link_delay,
          std::vector<faults::FaultPhase>{{.loss_probability = 0.3}},
          Rng(2026)));
  simulator.run();

  std::istringstream in(jsonl.str());
  const Json trace = obs::chrome_trace_from_jsonl(in);
  expect_well_formed(trace);
  EXPECT_EQ(count_events(trace, "run_config", "M"), 1u);
  EXPECT_EQ(count_events(trace, "run_summary", "M"), 1u);
  EXPECT_GT(count_events(trace, "occupancy", "C"), 0u);
  EXPECT_GT(count_events(trace, "client_underflow", "i"), 0u);

  // Round-trip: the dumped array re-parses to the same event count.
  const Json reparsed = Json::parse(trace.dump());
  ASSERT_TRUE(reparsed.is_array());
  EXPECT_EQ(reparsed.size(), trace.size());
}

}  // namespace
}  // namespace rtsmooth

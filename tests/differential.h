// Three-way differential harness: the deque-based reference oracle
// (reference_core.h) vs the production simulator run two ways on one
// instance — skipping quiescent spans, as it always does, and stepping,
// behind a SteppingLink that forces a live step at every slot.
//
// Per run the harness captures five artifacts:
//   - the SimReport (operator==: every tally, breakdown, maximum and
//     invariant-violation count),
//   - the JSONL trace (config / violation / step / run events — a skipping
//     run back-fills one zero-delta step event per skipped slot, so the
//     traces are comparable line-for-line),
//   - the Registry snapshot, to_json(/*include_timers=*/false) — the
//     byte-identity determinism unit (span timers measure wall clock and
//     are quarantined, DESIGN.md Sect. 8),
//   - the FlightRecorder incident list, its step/trigger counters and its
//     ring at the end of the run (a skipping run hands the recorder each
//     span as one record_idle call),
//   - the per-step sets of a RunsAndSteps ScheduleRecorder, which must
//     agree with the same run's JSONL step events on every field the two
//     share — the step observation the timing-lemma tests read.
//
// The reference oracle carries no registry or recorder, so the oracle
// legs compare report + trace, while the stepping-vs-skipping leg compares
// all four artifacts. Failures name the disagreeing pair and print the
// caller's reproducer (normally testgen::describe_instance).

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/link.h"
#include "core/schedule.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "reference_core.h"
#include "sim/simulator.h"

namespace rtsmooth::difftest {

/// Test-only Link decorator: forwards every call to `inner` and counts
/// deliver() polls. A stepping decorator answers next_activity(now) with
/// `now` — an early answer the Link contract allows — so the simulator
/// takes a live step at every t and never absorbs a span: exactly the call
/// sequence of a slot-by-slot loop, the leg skipping runs are compared
/// against. With `stepping` false it only counts.
class SteppingLink final : public Link {
 public:
  explicit SteppingLink(std::unique_ptr<Link> inner, bool stepping = true)
      : inner_(std::move(inner)), stepping_(stepping) {}

  void submit(Time t, std::vector<SentPiece> pieces) override {
    inner_->submit(t, std::move(pieces));
  }
  std::vector<SentPiece> deliver(Time t) override {
    ++polls_;
    return inner_->deliver(t);
  }
  std::vector<Nack> collect_nacks(Time t) override {
    return inner_->collect_nacks(t);
  }
  bool idle() const override { return inner_->idle(); }
  Time min_delay() const override { return inner_->min_delay(); }
  Time next_activity(Time now) const override {
    return stepping_ ? now : inner_->next_activity(now);
  }
  void advance_to(Time t) override { inner_->advance_to(t); }
  void set_telemetry(obs::Telemetry telemetry) override {
    inner_->set_telemetry(telemetry);
  }

  std::int64_t polls() const { return polls_; }

 private:
  std::unique_ptr<Link> inner_;
  bool stepping_;
  std::int64_t polls_ = 0;
};

/// Builds a fresh link for one engine run. Links are stateful and consumed
/// by the simulator, so every engine leg needs its own copy — factories
/// must return identically-seeded links on every call. Empty: each
/// simulator constructs its own default FixedDelayLink.
using LinkFactory = std::function<std::unique_ptr<Link>()>;

/// Everything one engine run produces that byte-identity pins.
struct EngineArtifacts {
  SimReport report;
  std::string trace;      ///< JSONL, one event per line
  std::string registry;   ///< Registry::to_json(false).dump()
  std::string incidents;  ///< incident documents, one JSON line each
  std::int64_t steps_recorded = 0;
  std::int64_t triggers_total = 0;
  std::vector<obs::StepRecord> window;  ///< the recorder's ring at the end
  std::vector<StepSets> step_sets;  ///< ScheduleRecorder, RunsAndSteps
};

/// Small window / few incidents: enough to catch a divergence without
/// making fuzz iterations pay for a 256-step ring.
inline obs::FlightRecorderConfig differential_recorder_config() {
  obs::FlightRecorderConfig config;
  config.window = 48;
  config.max_incidents = 4;
  return config;
}

/// The link `link` builds — the config's FixedDelayLink when it is empty —
/// behind a stepping SteppingLink.
inline std::unique_ptr<Link> stepping_link(const sim::SimConfig& config,
                                           const LinkFactory& link = {}) {
  return std::make_unique<SteppingLink>(
      link ? link() : std::make_unique<FixedDelayLink>(config.link_delay));
}

/// One production run — stepping every slot or skipping quiescent spans —
/// with the full observability plane attached.
inline EngineArtifacts run_engine(const Stream& stream,
                                  const sim::SimConfig& config,
                                  std::string_view policy, bool stepping,
                                  const LinkFactory& link = {}) {
  std::ostringstream trace;
  obs::TraceWriter writer(trace);
  obs::Registry registry;
  obs::FlightRecorder recorder(differential_recorder_config());
  sim::SimConfig cfg = config;
  cfg.telemetry.tracer = &writer;
  cfg.telemetry.registry = &registry;
  cfg.telemetry.recorder = &recorder;
  sim::SmoothingSimulator simulator(
      stream, cfg, make_policy(policy),
      stepping ? stepping_link(config, link) : (link ? link() : nullptr));
  ScheduleRecorder schedule(stream.run_count(),
                            ScheduleRecorder::Level::RunsAndSteps);
  EngineArtifacts out;
  out.report = simulator.run(&schedule);
  out.step_sets = schedule.steps();
  out.trace = std::move(trace).str();
  out.registry = registry.to_json(/*include_timers=*/false).dump();
  std::ostringstream incidents;
  for (const obs::Json& incident : recorder.incidents()) {
    incidents << incident.dump() << '\n';
  }
  out.incidents = std::move(incidents).str();
  out.steps_recorded = recorder.steps_recorded();
  out.triggers_total = recorder.triggers_total();
  out.window = recorder.window();
  return out;
}

/// The deque-oracle run. Registry / incident fields stay empty — the
/// reference core predates the observability plane on purpose (it stays
/// simple enough to trust by inspection).
inline EngineArtifacts run_oracle(const Stream& stream,
                                  const sim::SimConfig& config,
                                  std::string_view policy,
                                  const LinkFactory& link = {}) {
  std::ostringstream trace;
  obs::TraceWriter writer(trace);
  refcore::ReferenceSimulator simulator(stream, config, policy,
                                        link ? link() : nullptr);
  EngineArtifacts out;
  out.report = simulator.run(&writer);
  out.trace = std::move(trace).str();
  return out;
}

/// Line-by-line diff of one artifact between two named engines: a
/// full-string EXPECT_EQ would dump thousands of lines; the first
/// divergent line is what identifies the bug and the failing pair.
inline void expect_same_lines(std::string_view artifact,
                              std::string_view label_a, const std::string& a,
                              std::string_view label_b, const std::string& b,
                              const std::string& reproducer) {
  if (a == b) return;
  std::istringstream a_in(a);
  std::istringstream b_in(b);
  std::string a_line;
  std::string b_line;
  std::size_t line = 0;
  while (true) {
    const bool a_ok = static_cast<bool>(std::getline(a_in, a_line));
    const bool b_ok = static_cast<bool>(std::getline(b_in, b_line));
    ++line;
    if (!a_ok && !b_ok) break;
    if (a_ok != b_ok || a_line != b_line) {
      ADD_FAILURE() << artifact << " divergence (" << label_a << " vs "
                    << label_b << ") at line " << line << "\n  " << label_a
                    << ": " << (a_ok ? a_line : std::string("<end>"))
                    << "\n  " << label_b << ": "
                    << (b_ok ? b_line : std::string("<end>")) << "\n"
                    << reproducer;
      return;
    }
  }
  ADD_FAILURE() << artifact << " mismatch (" << label_a << " vs " << label_b
                << ") with no differing line\n" << reproducer;
}

/// One production leg's ScheduleRecorder steps against its own JSONL step
/// events, on the nine fields both carry: t, the six byte flows and the two
/// occupancies. The recorder and the tracer observe the same steps, so the
/// two lists must agree element for element.
inline void expect_step_sets_match_trace(std::string_view label,
                                         const EngineArtifacts& leg,
                                         const std::string& reproducer) {
  std::istringstream in(leg.trace);
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    const obs::Json event = obs::Json::parse(line);
    if (event.at("type").as_string() != "step") continue;
    if (index >= leg.step_sets.size()) {
      ADD_FAILURE() << label << ": the trace has more step events than the "
                    << "recorder's " << leg.step_sets.size() << " steps\n"
                    << reproducer;
      return;
    }
    const StepSets& step = leg.step_sets[index++];
    const bool same =
        event.at("t").as_int() == step.t &&
        event.at("arrived").as_int() == step.arrived &&
        event.at("sent").as_int() == step.sent &&
        event.at("delivered").as_int() == step.delivered &&
        event.at("played").as_int() == step.played &&
        event.at("dropped_server").as_int() == step.dropped_server &&
        event.at("dropped_client").as_int() == step.dropped_client &&
        event.at("server_occupancy").as_int() == step.server_occupancy &&
        event.at("client_occupancy").as_int() == step.client_occupancy;
    if (!same) {
      ADD_FAILURE() << label << ": recorder step " << index - 1
                    << " (t=" << step.t << ", arrived=" << step.arrived
                    << ", sent=" << step.sent
                    << ", delivered=" << step.delivered
                    << ", played=" << step.played
                    << ", dropped_server=" << step.dropped_server
                    << ", dropped_client=" << step.dropped_client
                    << ", server_occupancy=" << step.server_occupancy
                    << ", client_occupancy=" << step.client_occupancy
                    << ") disagrees with the trace's step event\n  " << line
                    << "\n" << reproducer;
      return;
    }
  }
  EXPECT_EQ(index, leg.step_sets.size())
      << label << ": the recorder has more steps than the trace\n"
      << reproducer;
}

/// Stepping vs skipping: full-artifact byte-identity (report, trace,
/// registry snapshot, incident list, recorder counters and final ring),
/// after checking each leg's recorder steps against its own trace.
inline void expect_legs_identical(const EngineArtifacts& stepping,
                                  const EngineArtifacts& skipping,
                                  const std::string& reproducer) {
  expect_step_sets_match_trace("stepping", stepping, reproducer);
  expect_step_sets_match_trace("skipping", skipping, reproducer);
  EXPECT_TRUE(stepping.report == skipping.report)
      << "SimReport mismatch (stepping vs skipping)\n" << reproducer;
  expect_same_lines("trace", "stepping", stepping.trace, "skipping",
                    skipping.trace, reproducer);
  expect_same_lines("registry", "stepping", stepping.registry, "skipping",
                    skipping.registry, reproducer);
  expect_same_lines("incidents", "stepping", stepping.incidents, "skipping",
                    skipping.incidents, reproducer);
  EXPECT_EQ(stepping.steps_recorded, skipping.steps_recorded)
      << "flight-recorder step count mismatch (stepping vs skipping)\n"
      << reproducer;
  EXPECT_EQ(stepping.triggers_total, skipping.triggers_total)
      << "flight-recorder trigger count mismatch (stepping vs skipping)\n"
      << reproducer;
  EXPECT_TRUE(stepping.window == skipping.window)
      << "flight-recorder window mismatch (stepping vs skipping)\n"
      << reproducer;
}

/// The full three-way check. `link` builds the production link (used for
/// both the stepping and skipping legs); `oracle_link` builds the
/// reference-flavoured link for the deque oracle. Both default to each
/// simulator's own FixedDelayLink.
inline void expect_three_way(const Stream& stream,
                             const sim::SimConfig& config,
                             std::string_view policy,
                             const std::string& reproducer,
                             const LinkFactory& link = {},
                             const LinkFactory& oracle_link = {}) {
  const EngineArtifacts stepping =
      run_engine(stream, config, policy, /*stepping=*/true, link);
  const EngineArtifacts skipping =
      run_engine(stream, config, policy, /*stepping=*/false, link);
  const EngineArtifacts oracle =
      run_oracle(stream, config, policy, oracle_link);
  EXPECT_TRUE(oracle.report == stepping.report)
      << "SimReport mismatch (reference vs stepping)\n" << reproducer;
  expect_same_lines("trace", "reference", oracle.trace, "stepping",
                    stepping.trace, reproducer);
  // Diff the oracle against the skipping run directly too: when the two
  // production legs agree with each other but not the oracle, the failure
  // should still name both pairs.
  EXPECT_TRUE(oracle.report == skipping.report)
      << "SimReport mismatch (reference vs skipping)\n" << reproducer;
  expect_same_lines("trace", "reference", oracle.trace, "skipping",
                    skipping.trace, reproducer);
  expect_legs_identical(stepping, skipping, reproducer);
}

}  // namespace rtsmooth::difftest

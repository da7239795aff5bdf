// Schedule accounting: the paper's per-step sets A(t), S(t), R(t), P(t),
// D(t) and per-slice event times (Definitions 2.2-2.3), recorded at slice-run
// granularity.
//
// The per-step sets are the shared step's own record (core/pipeline.h):
// StepSets is obs::StepRecord under the paper's name, so the recorder, the
// JSONL tracer and the flight recorder all keep the same record of a step.
// The per-run outcomes come from the server and client as events happen.
//
// Tests use the recorder to check the timing lemmas directly: Lemma 3.2
// (every transmitted byte leaves the server within B/R of arrival),
// Lemma 3.3 (t+P <= RT <= t+P+B/R) and the real-time property PT = AT+P+D.

#pragma once

#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "obs/flight_recorder.h"

namespace rtsmooth {

/// Sizes of the paper's per-step sets, in bytes: |A(t)| (`arrived`), |S(t)|
/// (`sent`), |R(t)| (`delivered`), |P(t)| (`played`), |D(t)| at the server
/// (`dropped_server`), client-side drops (`dropped_client`: late, overflow
/// and incomplete slices), and |Bs(t)|, |Bc(t)| after the step.
using StepSets = obs::StepRecord;

/// Outcome of one slice run: how many of its `count` slices played and how
/// many the server dropped, and the first/last times of each event kind.
struct RunOutcome {
  std::int64_t played = 0;
  std::int64_t dropped_server = 0;
  Time first_send = kNever;   ///< min ST over the run's transmitted bytes
  Time last_send = kNever;    ///< max ST (kNever while nothing sent)
  Time first_receive = kNever;
  Time last_receive = kNever;
  Time play_time = kNever;    ///< PT; all slices of a run play together

  bool operator==(const RunOutcome&) const = default;
};

/// Optional recorder attached to a simulation. Recording per-step sets is
/// cheap (one struct per step) but still off by default for parameter
/// sweeps; per-run outcomes are always kept.
class ScheduleRecorder {
 public:
  enum class Level { RunsOnly, RunsAndSteps };

  explicit ScheduleRecorder(std::size_t run_count,
                            Level level = Level::RunsOnly)
      : level_(level), runs_(run_count) {}

  Level level() const { return level_; }

  /// Keeps one step's sets (RunsAndSteps only; ignored at RunsOnly).
  void record_step(const StepSets& step) {
    if (level_ == Level::RunsAndSteps) steps_.push_back(step);
  }

  RunOutcome& run(std::size_t run_index);
  const RunOutcome& run(std::size_t run_index) const;
  std::size_t run_count() const { return runs_.size(); }

  const std::vector<StepSets>& steps() const { return steps_; }

  /// Records a send of `bytes` of run `run_index` at time t.
  void note_send(std::size_t run_index, Time t, Bytes bytes);
  void note_receive(std::size_t run_index, Time t, Bytes bytes);

 private:
  Level level_;
  std::vector<RunOutcome> runs_;
  std::vector<StepSets> steps_;
};

}  // namespace rtsmooth

// Flight recorder: a fixed-size ring of compact per-step records that turns
// a bare invariant-violation counter into a causal story. The simulator
// appends one StepRecord per step (occupancies, byte flows, link state, the
// step's drop decision), and a quiescent span it skips as one idle call;
// when a violation fires (an InvariantMonitor check, or any owner calling
// on_violation()) the recorder freezes the last-N-step window together with
// the trigger event into a self-contained `rtsmooth-incident-v1` JSON
// document.
//
// Contracts (DESIGN.md Sect. 11):
//
//   * Null handle is free. The recorder rides the same nullable Telemetry
//     handle as the Registry and TraceWriter: with `telemetry.recorder ==
//     nullptr` the simulator's hot path pays one predictable branch, pinned
//     by bench/micro_obs.
//   * Incidents are deferred JSON, not files. Triggers snapshot into an
//     in-memory document (bounded by `max_incidents`; later triggers are
//     counted, not stored) and the owner writes them after the run — the
//     step loop never touches the filesystem.
//   * Deterministic merge. sweep() gives every grid cell its own recorder
//     (cloned from the shared one's config) and folds the incidents back in
//     submission order, so the merged incident list is byte-identical for
//     any thread count, like Registry snapshots.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace rtsmooth::obs {

/// One step of flight data — the record every step of the shared pipeline
/// returns (core/pipeline.h). All byte quantities are this step's deltas
/// except the two occupancies, which are post-step state; `dropped_server`
/// is the step's active drop decision (Eq. (3) sheds, early drops and
/// value-floor sheds), `link_idle` is the channel state after delivery, and
/// `stalled` means the client rebuffered this step (UnderflowPolicy::Stall
/// only; a degraded playout under Skip is not a stall).
struct StepRecord {
  std::int64_t t = 0;
  std::int64_t arrived = 0;
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t played = 0;
  std::int64_t dropped_server = 0;
  std::int64_t dropped_client = 0;
  std::int64_t retransmitted = 0;
  std::int64_t server_occupancy = 0;
  std::int64_t client_occupancy = 0;
  bool link_idle = true;
  bool stalled = false;

  bool operator==(const StepRecord&) const = default;

  Json to_json() const;
};

struct FlightRecorderConfig {
  /// Ring capacity: incidents carry at most this many trailing steps.
  std::size_t window = 256;
  /// Incident documents kept; triggers beyond the cap are counted in
  /// triggers_total() but drop no window.
  std::size_t max_incidents = 8;
  /// Capture on InvariantMonitor violations (the default reason to fly
  /// with a recorder at all).
  bool trigger_on_violation = true;
  /// Minimum steps between captured incidents. A violation storm — one per
  /// step, the common faulty-link shape — would otherwise burn the whole
  /// incident budget on near-identical windows. 0 captures every trigger.
  std::int64_t cooldown = 0;
};

class FlightRecorder {
 public:
  /// Throws std::invalid_argument when config.window is 0 — a windowless
  /// recorder would emit incidents with no forensics in them.
  explicit FlightRecorder(FlightRecorderConfig config = {});

  const FlightRecorderConfig& config() const { return config_; }

  /// Run context embedded verbatim in every incident (the simulator stores
  /// the same fields the tracer's `config` event carries), making each
  /// report self-contained.
  void set_context(Json context) { context_ = std::move(context); }
  /// Adds one key to the context (sweep cells tag severity / policy / cell
  /// index so a merged incident still names its grid cell).
  void annotate(std::string_view key, Json value);

  /// Appends to the ring, overwriting the oldest record once full.
  void record(const StepRecord& record);

  /// Records the quiescent steps [t0, t1) as zero records carrying
  /// `link_idle`, exactly as record() per step would, in O(min(t1 - t0,
  /// window)): only the last `window` of them can stay in the ring, so the
  /// rest are counted in steps_recorded() without being written.
  void record_idle(std::int64_t t0, std::int64_t t1, bool link_idle);

  /// Violation hook called by faults::InvariantMonitor through the
  /// Telemetry handle. Captures an incident when trigger_on_violation and
  /// the cooldown allow.
  void on_violation(std::int64_t t, std::string_view kind,
                    std::int64_t magnitude);

  /// Captured `rtsmooth-incident-v1` documents, oldest first.
  const std::vector<Json>& incidents() const { return incidents_; }
  /// Total record() calls (merged recorders sum).
  std::int64_t steps_recorded() const { return steps_recorded_; }
  /// Triggers that fired, including those suppressed by max_incidents or
  /// the cooldown.
  std::int64_t triggers_total() const { return triggers_total_; }

  /// Chronological copy of the current ring contents.
  std::vector<StepRecord> window() const;

  /// Submission-order fold for sweep(): appends `other`'s incidents (up to
  /// max_incidents) and sums the counters. Ring contents do not merge —
  /// windows from different runs have no common timeline.
  void merge(const FlightRecorder& other);

  /// Writes one incident document (trailing newline) to `path`; throws
  /// std::runtime_error naming the path on open or write failure.
  static void write_incident(const Json& incident, const std::string& path);

 private:
  void capture(Json trigger);

  FlightRecorderConfig config_;
  Json context_ = Json::object();
  std::vector<StepRecord> ring_;
  std::size_t next_ = 0;        ///< ring slot the next record lands in
  std::size_t filled_ = 0;      ///< min(steps in ring, window)
  std::int64_t steps_recorded_ = 0;
  std::int64_t triggers_total_ = 0;
  std::int64_t last_capture_t_ = 0;
  bool captured_any_ = false;
  std::vector<Json> incidents_;
};

}  // namespace rtsmooth::obs

// Parameter sweeps matching the axes of the paper's figures: weighted loss
// as a function of buffer size (in multiples of the largest frame,
// Figs. 2/3/5/6), of link rate (relative to the average stream rate,
// Fig. 4), and of channel-fault severity (the Sect. 6 robustness axis the
// paper leaves open, under both client degradation modes).
//
// All three axes share one entry point: describe the grid in a SweepSpec
// and call sweep(). Every grid cell is an independent simulation — each
// task owns its seeded RNG and the Stream is read-only — so sweep() fans
// the cells out over a ParallelRunner (see sim/runner.h). Results are
// byte-identical to the serial path for any thread count; `threads = 1`
// runs in place with no pool.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/link.h"
#include "core/planner.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "sim/simulator.h"

namespace rtsmooth::sim {

struct SweepPoint {
  double x = 0.0;  ///< buffer multiple of max frame, or rate fraction of avg
  Plan plan;       ///< the balanced B = D*R configuration actually run
  std::vector<PolicyOutcome> policies;
  OptimalPoint optimal;  ///< meaningful only when requested
  bool has_optimal = false;

  bool operator==(const SweepPoint&) const = default;
};

/// One fault-severity point: the identical stream/plan/policy run under both
/// client degradation modes on a link built at that severity.
struct FaultPoint {
  double severity = 0.0;
  SimReport skip;   ///< UnderflowPolicy::Skip (concealment)
  SimReport stall;  ///< UnderflowPolicy::Stall (rebuffer-and-resync)

  bool operator==(const FaultPoint&) const = default;
};

/// Builds the faulty link for one sweep point. `severity` is whatever the
/// caller sweeps (erasure probability, outage rate, throttle depth);
/// severity 0 must mean "no faults". sweep() may invoke the factory from
/// several threads at once, so it must be safe to call concurrently —
/// stateless lambdas that construct a fresh seeded link qualify.
using FaultLinkFactory =
    std::function<std::unique_ptr<Link>(double severity, Time link_delay)>;

/// Which parameter `SweepSpec::values` ranges over.
enum class SweepAxis {
  BufferMultiple,  ///< B = value * max_frame_bytes, fixed rate (Figs. 2/3/6)
  RateFraction,    ///< R = value * average_rate, fixed buffer (Fig. 4)
  FaultSeverity,   ///< link built by link_factory(value) (fig_robustness)
};

/// One declarative description of a sweep — the grid, the fixed parameters,
/// and the execution width — consumed by sweep().
struct SweepSpec {
  SweepAxis axis = SweepAxis::BufferMultiple;
  /// The swept parameter, one result entry per value, in this order.
  std::vector<double> values;
  /// Drop policies run at every point (see policies/policy_factory.h). The
  /// FaultSeverity axis runs only the first entry (a fault point compares
  /// degradation modes, not policies).
  std::vector<std::string> policies = {"tail-drop", "greedy"};
  /// Also compute the off-line optimal comparator at each point
  /// (BufferMultiple / RateFraction axes only).
  bool with_optimal = false;

  // ---- fixed complements of the swept axis ----
  /// Link rate for the BufferMultiple and FaultSeverity axes; 0 derives the
  /// stream's average rate. Ignored by RateFraction (the axis sets R).
  Bytes rate = 0;
  /// Buffer size in multiples of the largest frame, for the RateFraction
  /// and FaultSeverity axes. Ignored by BufferMultiple (the axis sets B).
  double buffer_multiple = 4.0;
  /// FaultSeverity only: run this exact plan instead of deriving one from
  /// buffer_multiple and rate.
  std::optional<Plan> plan;

  // ---- fault-axis channel model ----
  FaultLinkFactory link_factory;  ///< required for FaultSeverity
  RecoveryConfig recovery{};      ///< NACK/retransmit settings per run
  Time max_stall = 16;            ///< rebuffer budget (Stall mode)

  /// Constant link propagation delay P for every run, all axes.
  Time link_delay = 1;

  /// Pool width: 0 defers to RTSMOOTH_THREADS / hardware_concurrency, 1 is
  /// the in-place serial path. Output is identical either way.
  unsigned threads = 0;

  // ---- observability ----
  /// Merged telemetry for the whole grid. Each cell simulates against its
  /// own private registry (cells may run on any thread); after the batch
  /// the cell registries fold into *registry in submission order, so the
  /// snapshot is byte-identical for any thread count. Every cell also times
  /// itself under a "sweep.cell" Span. Null: no telemetry, no cost.
  obs::Registry* registry = nullptr;
  /// Merged incident sink for the whole grid, same isolation pattern as
  /// `registry`: each cell flies its own FlightRecorder built from
  /// recorder->config() and annotated with the cell's coordinates
  /// (severity / x value, policy, cell index), and incidents fold into
  /// *recorder in submission order — the merged incident list is
  /// byte-identical for any thread count. Null: no recording, no cost.
  obs::FlightRecorder* recorder = nullptr;
  /// Per-cell completion callback, forwarded to the ParallelRunner.
  ParallelRunner::Progress progress;
};

/// Results of one sweep(): `points` for the BufferMultiple / RateFraction
/// axes, `faults` for the FaultSeverity axis (the other vector stays
/// empty), plus batch timing.
struct SweepResult {
  std::vector<SweepPoint> points;
  std::vector<FaultPoint> faults;
  RunStats stats;
};

/// Runs the sweep described by `spec` on `stream`. Throws
/// std::invalid_argument on an unrunnable spec (nothing to run per point —
/// no policies and no optimal, missing link_factory on the fault axis, a
/// buffer smaller than the stream's largest slice).
SweepResult sweep(const Stream& stream, const SweepSpec& spec);

/// Rounds a relative link rate to at least 1 byte/step.
Bytes relative_rate(const Stream& stream, double fraction);

}  // namespace rtsmooth::sim

// Parallel batch execution for independent simulation tasks.
//
// Every figure/table bench replays the same read-only Stream under dozens of
// independent (plan, policy, link, severity) combinations; each combination
// is a pure function of its inputs (seeded RNGs live inside the task, the
// Stream is never mutated). ParallelRunner exploits that: a run() call
// hands the batch to `width - 1` parked helper threads and works as the
// last worker itself; every worker pulls tasks off a shared index — no
// work stealing, no task dependencies — and run() returns once every
// helper has checked back in. Results land in submission order, so a
// parallel batch is byte-identical to running the same tasks in a serial
// loop.
//
// The helpers start on the first parallel run() and park on a condition
// variable between batches (they block, never spin); the destructor joins
// them. So a batch pays a wake-up, not a thread start-up, and a runner that
// never runs in parallel starts no thread at all. run() serves one caller
// at a time, and a task must never call run() on its own runner: that
// would wait for itself. Both are checked (RTS_EXPECTS).
//
// Width control, in priority order:
//   1. an explicit `threads` argument (SweepSpec::threads, --threads N),
//   2. the RTSMOOTH_THREADS environment variable,
//   3. std::thread::hardware_concurrency().
// Width 1 runs the same worker body inline on the calling thread (no thread
// is started), so `threads=1` *is* the serial path rather than merely
// approximating it, down to how a throwing task is handled.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace rtsmooth::sim {

/// Per-batch timing observability: the repo's first perf hook. Benches print
/// `summary()`; future BENCH_*.json trajectories can record the fields.
struct RunStats {
  std::size_t tasks = 0;        ///< tasks executed in the batch
  unsigned threads = 1;         ///< worker count actually used
  std::int64_t total_task_us = 0;  ///< sum of per-task wall time (~cpu time)
  std::int64_t max_task_us = 0;    ///< slowest single task
  std::int64_t queue_us = 0;  ///< sum of per-task wait from batch start to
                              ///< task start — queueing delay behind the
                              ///< pool; grows with tasks/threads
  std::int64_t wall_us = 0;        ///< end-to-end batch time

  /// total_task_us / wall_us — average task concurrency. Equals the
  /// parallel speedup when the pool is not oversubscribed (threads <=
  /// cores); on an oversubscribed host tasks time-slice, inflating their
  /// individual wall spans, and this reads as concurrency, not speedup.
  /// 1.0 when serial.
  double speedup() const;
  /// One line for bench output, e.g.
  /// "78 tasks on 8 threads: 4123ms total, max task 102ms, wall 612ms (6.7x)".
  std::string summary() const;

  /// Merges another batch into this one (benches that run several batches
  /// report the aggregate). Wall time adds: batches ran back to back.
  RunStats& operator+=(const RunStats& o);
};

/// Resolves a requested width against RTSMOOTH_THREADS and the hardware:
/// `requested` > 0 wins, else the environment variable, else
/// hardware_concurrency(); always returns at least 1.
unsigned resolve_threads(unsigned requested);

/// Executes a batch of independent tasks on `threads()` workers: the
/// calling thread plus `threads() - 1` helpers, started on the first
/// parallel run() and parked between batches.
///
/// Contract for tasks: each task owns all state it mutates (write to your
/// own pre-allocated result slot; seed your own RNG). Tasks must not touch
/// shared mutable state — the Stream and any captured configuration are
/// read-only — and must not call run() on the runner that runs them. A
/// task that throws does not abort the batch: the remaining tasks still
/// run, then the exception thrown by the lowest-indexed failing task is
/// rethrown (deterministic, like the serial loop).
class ParallelRunner {
 public:
  /// `threads == 0` defers to RTSMOOTH_THREADS / the hardware; see
  /// resolve_threads().
  explicit ParallelRunner(unsigned threads = 0);
  /// Joins the helpers, if any were started.
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  unsigned threads() const { return threads_; }

  /// Called after each task completes with (done, total). Invocations are
  /// serialized but their order follows completion, not submission; keep
  /// the callback cheap — it runs under the workers' merge lock. If it
  /// throws, that counts as a failure of the task it reported.
  using Progress = std::function<void(std::size_t done, std::size_t total)>;

  /// Runs every task; task i's side effects are its own. Returns timing
  /// stats for the batch. `progress`, when given, is notified once per
  /// completed task. The batch is only read, so a caller can keep one task
  /// list and run it again. One caller at a time; never from inside one of
  /// this runner's own tasks.
  RunStats run(const std::vector<std::function<void()>>& tasks,
               const Progress& progress = nullptr);

  /// Convenience: `results[i] = fn(i)` for i in [0, count), results in index
  /// order. R must be default-constructible and movable. Accumulates timing
  /// into *stats when given.
  template <typename R, typename Fn>
  std::vector<R> map(std::size_t count, Fn&& fn, RunStats* stats = nullptr) {
    std::vector<R> results(count);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back([&results, &fn, i] { results[i] = fn(i); });
    }
    const RunStats batch = run(tasks);
    if (stats != nullptr) *stats += batch;
    return results;
  }

 private:
  struct Batch;
  struct Pool;

  unsigned threads_;
  std::atomic<bool> running_{false};  ///< a run() is in progress
  std::unique_ptr<Pool> pool_;        ///< helpers; null until needed
};

/// Per-cell telemetry isolation for a batch. Cells may run on any thread,
/// so cell k records into a private registry and flight recorder through
/// at(k); fold() merges them into the batch's registry and recorder in cell
/// order afterwards, making the merged snapshot and incident list
/// independent of the thread count (DESIGN.md Sect. 9).
class CellTelemetry {
 public:
  /// Cells get a registry when `registry` is set, and a flight recorder
  /// configured like `recorder` and tagged with its cell index when
  /// `recorder` is; either may be null.
  CellTelemetry(obs::Registry* registry, obs::FlightRecorder* recorder,
                std::size_t cells);

  /// Cell k's handle: empty when both targets are null.
  obs::Telemetry at(std::size_t k);
  /// Incident context tag for cell k; call before the batch runs. A no-op
  /// without a recorder.
  void annotate(std::size_t k, std::string_view key, obs::Json value);
  /// Merges every cell into the targets, in cell order.
  void fold();

 private:
  obs::Registry* registry_;
  obs::FlightRecorder* recorder_;
  std::vector<obs::Registry> registries_;
  std::vector<obs::FlightRecorder> recorders_;
};

}  // namespace rtsmooth::sim

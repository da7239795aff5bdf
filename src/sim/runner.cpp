#include "sim/runner.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::sim {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// Sanity ceiling: more workers than this only adds contention on the kinds
/// of batches the benches run.
constexpr unsigned kMaxThreads = 256;

unsigned env_threads() {
  const char* env = std::getenv("RTSMOOTH_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0') return 0;  // not a number: ignore
  return static_cast<unsigned>(std::min<unsigned long>(value, kMaxThreads));
}

}  // namespace

double RunStats::speedup() const {
  return wall_us > 0 ? static_cast<double>(total_task_us) /
                           static_cast<double>(wall_us)
                     : 1.0;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << tasks << " task" << (tasks == 1 ? "" : "s") << " on " << threads
     << " thread" << (threads == 1 ? "" : "s") << ": " << total_task_us / 1000
     << "ms total, max task " << max_task_us / 1000 << "ms, wall "
     << wall_us / 1000 << "ms";
  if (threads > 1) {
    os << " (" << static_cast<double>(static_cast<std::int64_t>(
                      speedup() * 10 + 0.5)) /
                      10
       << "x)";
  }
  return std::move(os).str();
}

RunStats& RunStats::operator+=(const RunStats& o) {
  tasks += o.tasks;
  threads = std::max(threads, o.threads);
  total_task_us += o.total_task_us;
  max_task_us = std::max(max_task_us, o.max_task_us);
  queue_us += o.queue_us;
  wall_us += o.wall_us;
  return *this;
}

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (const unsigned env = env_threads(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(hw, kMaxThreads) : 1;
}

/// One batch in flight, on the calling thread's stack for one run() call.
struct ParallelRunner::Batch {
  const std::vector<std::function<void()>>& tasks;
  const Progress& progress;
  Clock::time_point start;
  std::atomic<std::size_t> next{0};
  std::mutex merge;  ///< guards the fields below
  std::size_t done = 0;
  RunStats stats;
  std::size_t error_index = 0;  ///< lowest failing task, when `error` is set
  std::exception_ptr error;

  /// The worker body: pull task indices until none is left, then merge the
  /// local timing into `stats`. Nothing escapes it: a throwing task, or a
  /// progress callback throwing for it, is recorded as that task's failure.
  void work() noexcept {
    std::int64_t local_total = 0;
    std::int64_t local_max = 0;
    std::int64_t local_queue = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) break;
      const auto task_start = Clock::now();
      local_queue += us_between(start, task_start);
      std::exception_ptr failure;
      try {
        tasks[i]();
      } catch (...) {
        failure = std::current_exception();
      }
      const std::int64_t us = us_between(task_start, Clock::now());
      local_total += us;
      local_max = std::max(local_max, us);
      if (!progress && !failure) continue;
      const std::lock_guard<std::mutex> lock(merge);
      if (progress) {
        try {
          progress(++done, tasks.size());
        } catch (...) {
          if (!failure) failure = std::current_exception();
        }
      }
      if (failure && (!error || i < error_index)) {
        error_index = i;
        error = std::move(failure);
      }
    }
    const std::lock_guard<std::mutex> lock(merge);
    stats.total_task_us += local_total;
    stats.max_task_us = std::max(stats.max_task_us, local_max);
    stats.queue_us += local_queue;
  }
};

/// The parked helper threads. `mutex` guards every field but `threads`.
struct ParallelRunner::Pool {
  std::mutex mutex;
  std::condition_variable wake;  ///< helpers: a batch was posted, or stop
  std::condition_variable idle;  ///< caller: the batch's helpers are back
  Batch* batch = nullptr;
  std::uint64_t epoch = 0;  ///< bumped once per posted batch
  unsigned helpers = 0;     ///< helpers the current batch uses
  unsigned busy = 0;        ///< of those, still working on it
  bool stop = false;
  std::vector<std::thread> threads;

  Pool(const Pool&) = delete;  // the helpers hold its address
  Pool& operator=(const Pool&) = delete;
  explicit Pool(unsigned count) {
    threads.reserve(count);
    try {
      for (unsigned k = 0; k < count; ++k) {
        threads.emplace_back([this, k] { park(k); });
      }
    } catch (...) {
      join();
      throw;
    }
  }
  ~Pool() { join(); }

  /// Helper k's life: sleep until a batch that uses it is posted, work it,
  /// check back in, sleep again.
  void park(unsigned k) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [&] { return stop || (epoch != seen && k < helpers); });
      if (stop) return;
      seen = epoch;
      Batch& posted = *batch;
      lock.unlock();
      posted.work();
      lock.lock();
      if (--busy == 0) idle.notify_one();
    }
  }

  /// Runs `b` on `count` helpers and the calling thread; returns once every
  /// one of those helpers has checked back in, so none still reads `b`.
  void run(Batch& b, unsigned count) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      batch = &b;
      helpers = count;
      busy = count;
      ++epoch;
    }
    wake.notify_all();
    b.work();
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock, [this] { return busy == 0; });
    batch = nullptr;
  }

  void join() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    wake.notify_all();
    for (std::thread& t : threads) t.join();
  }
};

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(resolve_threads(threads)) {}

ParallelRunner::~ParallelRunner() = default;

RunStats ParallelRunner::run(const std::vector<std::function<void()>>& tasks,
                             const Progress& progress) {
  // A second caller would race the first for the helpers, and a task
  // calling back in would wait for its own batch to finish.
  const bool busy = running_.exchange(true, std::memory_order_acquire);
  RTS_EXPECTS(!busy);
  struct Release {
    std::atomic<bool>& running;
    ~Release() { running.store(false, std::memory_order_release); }
  } release{running_};

  Batch batch{.tasks = tasks, .progress = progress, .start = Clock::now()};
  const auto width = static_cast<unsigned>(std::min<std::size_t>(
      threads_, std::max<std::size_t>(tasks.size(), 1)));
  batch.stats.tasks = tasks.size();
  batch.stats.threads = width;
  if (width <= 1) {
    // The calling thread is the one worker: `threads=1` is the reference
    // execution the parallel path must match byte for byte, errors included.
    batch.work();
  } else {
    if (!pool_) pool_ = std::make_unique<Pool>(threads_ - 1);
    pool_->run(batch, width - 1);
  }
  batch.stats.wall_us = us_between(batch.start, Clock::now());

  if (batch.error) std::rethrow_exception(batch.error);
  return batch.stats;
}

CellTelemetry::CellTelemetry(obs::Registry* registry,
                             obs::FlightRecorder* recorder, std::size_t cells)
    : registry_(registry), recorder_(recorder) {
  if (registry_ != nullptr) registries_.resize(cells);
  if (recorder_ != nullptr) {
    recorders_.reserve(cells);
    for (std::size_t k = 0; k < cells; ++k) {
      recorders_.emplace_back(recorder_->config());
      recorders_.back().annotate("cell", static_cast<std::int64_t>(k));
    }
  }
}

obs::Telemetry CellTelemetry::at(std::size_t k) {
  obs::Telemetry telemetry;
  if (!registries_.empty()) telemetry.registry = &registries_[k];
  if (!recorders_.empty()) telemetry.recorder = &recorders_[k];
  return telemetry;
}

void CellTelemetry::annotate(std::size_t k, std::string_view key,
                             obs::Json value) {
  if (!recorders_.empty()) recorders_[k].annotate(key, std::move(value));
}

void CellTelemetry::fold() {
  for (const obs::Registry& cell : registries_) registry_->merge(cell);
  for (const obs::FlightRecorder& cell : recorders_) recorder_->merge(cell);
}

}  // namespace rtsmooth::sim

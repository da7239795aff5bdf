#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

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

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(resolve_threads(threads)) {}

RunStats ParallelRunner::run(std::vector<std::function<void()>> tasks,
                             const Progress& progress) {
  RunStats stats;
  stats.tasks = tasks.size();
  const auto width = static_cast<unsigned>(std::min<std::size_t>(
      threads_, std::max<std::size_t>(tasks.size(), 1)));
  stats.threads = width;
  const auto batch_start = Clock::now();

  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by merge_mutex
  std::vector<std::exception_ptr> errors(tasks.size());
  std::mutex merge_mutex;
  auto worker = [&] {
    std::int64_t local_total = 0;
    std::int64_t local_max = 0;
    std::int64_t local_queue = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) break;
      const auto start = Clock::now();
      local_queue += us_between(batch_start, start);
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      const std::int64_t us = us_between(start, Clock::now());
      local_total += us;
      local_max = std::max(local_max, us);
      if (progress) {
        const std::lock_guard<std::mutex> lock(merge_mutex);
        progress(++done, tasks.size());
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    stats.total_task_us += local_total;
    stats.max_task_us = std::max(stats.max_task_us, local_max);
    stats.queue_us += local_queue;
  };

  if (width <= 1) {
    // The calling thread is the one worker: `threads=1` is the reference
    // execution the parallel path must match byte for byte, errors included.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (unsigned t = 0; t < width; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  stats.wall_us = us_between(batch_start, Clock::now());

  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return stats;
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

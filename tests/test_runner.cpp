// Tests for the ParallelRunner and the determinism contract of sweep():
// for any thread count, a parallel batch must produce results byte-identical
// to the serial (threads = 1) path, in submission order — including the
// merged telemetry registry, which folds per-cell registries in submission
// order. Also covers the progress callback, queue-wait accounting, and the
// parked helper pool's lifetime: helpers start once and serve every later
// batch, and the runner joins them on destruction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "faults/fault_schedule.h"
#include "obs/telemetry.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth::sim {
namespace {

Stream clip(std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

FaultLinkFactory erasure_factory() {
  return [](double severity, Time link_delay) -> std::unique_ptr<Link> {
    return std::make_unique<faults::ScheduledFaultLink>(
        link_delay,
        std::vector<faults::FaultPhase>{{.loss_probability = severity}},
        Rng(41));
  };
}

// ------------------------------------------------------------ ParallelRunner

/// Set by a task on the thread that runs it.
thread_local bool t_marked = false;

/// Holds every arriving task until `count` have arrived, so a batch of
/// `count` such tasks on `count` workers puts one task on each worker.
/// Gives up after a generous timeout instead of hanging the suite.
class Rendezvous {
 public:
  explicit Rendezvous(unsigned count) : count_(count) {}
  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == count_) all_.notify_all();
    return all_.wait_for(lock, std::chrono::seconds(30),
                         [this] { return arrived_ >= count_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_;
  unsigned count_;
  unsigned arrived_ = 0;
};

TEST(ParallelRunner, ResolveThreadsPrefersExplicitArgument) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);  // env or hardware, but never 0
}

TEST(ParallelRunner, MapReturnsResultsInSubmissionOrder) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ParallelRunner runner(threads);
    EXPECT_EQ(runner.threads(), threads);
    const auto out = runner.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u) << "threads=" << threads;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i) << "threads=" << threads;
    }
  }
}

TEST(ParallelRunner, RunExecutesEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 37; ++i) {
      tasks.push_back([&calls] { calls.fetch_add(1); });
    }
    const RunStats stats = ParallelRunner(threads).run(std::move(tasks));
    EXPECT_EQ(calls.load(), 37);
    EXPECT_EQ(stats.tasks, 37u);
    EXPECT_EQ(stats.threads, threads);
    EXPECT_GE(stats.wall_us, 0);
  }
}

TEST(ParallelRunner, LowestIndexedExceptionWinsDeterministically) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ParallelRunner runner(threads);
    std::atomic<int> executed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([i, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 5) throw std::runtime_error("task five");
        if (i == 11) throw std::runtime_error("task eleven");
      });
    }
    try {
      runner.run(std::move(tasks));
      FAIL() << "expected a rethrow, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task five") << "threads=" << threads;
    }
    // A throwing task does not abort the batch at any width.
    EXPECT_EQ(executed.load(), 16) << "threads=" << threads;
  }
}

TEST(ParallelRunner, SecondRunReusesTheFirstRunsWorkers) {
  constexpr unsigned kWidth = 4;
  ParallelRunner runner(kWidth);
  const auto batch = [](Rendezvous& meet, std::atomic<int>& met,
                        std::atomic<int>& marked) {
    std::vector<std::function<void()>> tasks;
    for (unsigned i = 0; i < kWidth; ++i) {
      tasks.push_back([meet = &meet, met = &met, marked = &marked] {
        if (t_marked) marked->fetch_add(1);
        t_marked = true;
        if (meet->arrive_and_wait()) met->fetch_add(1);
      });
    }
    return tasks;
  };
  // Batch 1: no worker can take a second task before all have met, so each
  // of the kWidth workers runs exactly one and marks its thread.
  Rendezvous first_meet(kWidth);
  std::atomic<int> first_met{0};
  std::atomic<int> first_marked{0};
  runner.run(batch(first_meet, first_met, first_marked));
  ASSERT_EQ(first_met.load(), static_cast<int>(kWidth));
  // Batch 2: every worker again takes one task, and each must run on a
  // thread batch 1 marked.
  Rendezvous second_meet(kWidth);
  std::atomic<int> second_met{0};
  std::atomic<int> second_marked{0};
  runner.run(batch(second_meet, second_met, second_marked));
  ASSERT_EQ(second_met.load(), static_cast<int>(kWidth));
  EXPECT_EQ(second_marked.load(), static_cast<int>(kWidth))
      << "batch 2 ran on threads that batch 1 never used";
}

TEST(ParallelRunner, BatchAfterAThrowingBatchRunsEveryTask) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ParallelRunner runner(threads);
    std::vector<std::function<void()>> failing(
        8, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(runner.run(failing), std::runtime_error)
        << "threads=" << threads;
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> tasks(
        24, [&calls] { calls.fetch_add(1); });
    EXPECT_NO_THROW(runner.run(tasks)) << "threads=" << threads;
    EXPECT_EQ(calls.load(), 24) << "threads=" << threads;
  }
}

TEST(ParallelRunner, JoinsOnDestructionWhetherOrNotItEverRan) {
  { ParallelRunner idle(4); }
  {
    // A one-task batch runs inline on the caller.
    ParallelRunner narrow(4);
    std::thread::id ran_on;
    narrow.run({[&ran_on] { ran_on = std::this_thread::get_id(); }});
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
  {
    ParallelRunner busy(4);
    std::atomic<int> calls{0};
    for (int k = 0; k < 5; ++k) {
      busy.map<int>(16, [&calls](std::size_t i) {
        calls.fetch_add(1);
        return static_cast<int>(i);
      });
    }
    EXPECT_EQ(calls.load(), 80);
  }
}

TEST(ParallelRunnerDeathTest, TaskCallingRunOnItsOwnRunnerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ParallelRunner runner(2);
        runner.run({[&runner] { runner.run({[] {}}); }, [] {}});
      },
      "precondition");
}

TEST(ParallelRunner, StatsAccumulateAcrossBatches) {
  RunStats total;
  ParallelRunner runner(2);
  runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); },
                  &total);
  runner.map<int>(6, [](std::size_t i) { return static_cast<int>(i); },
                  &total);
  EXPECT_EQ(total.tasks, 10u);
  EXPECT_GE(total.speedup(), 0.0);
  EXPECT_FALSE(total.summary().empty());
}

// ------------------------------------------- sweep() determinism contract

TEST(SweepDeterminism, BufferAxisIsByteIdenticalAcrossThreadCounts) {
  const Stream s = clip(200);
  SweepSpec spec{.axis = SweepAxis::BufferMultiple,
                 .values = {1, 2, 4},
                 .policies = {"tail-drop", "greedy", "random"},
                 .with_optimal = true,
                 .threads = 1};
  const auto serial = sweep(s, spec);
  for (unsigned threads : {2u, 8u}) {
    spec.threads = threads;
    const auto parallel = sweep(s, spec);
    EXPECT_EQ(parallel.points, serial.points) << "threads=" << threads;
    EXPECT_TRUE(parallel.faults.empty());
  }
}

TEST(SweepDeterminism, RateAxisIsByteIdenticalAcrossThreadCounts) {
  const Stream s = clip(200);
  SweepSpec spec{.axis = SweepAxis::RateFraction,
                 .values = {0.6, 0.9, 1.2},
                 .policies = {"tail-drop", "greedy"},
                 .with_optimal = true,
                 .buffer_multiple = 2.0,
                 .threads = 1};
  const auto serial = sweep(s, spec);
  for (unsigned threads : {2u, 8u}) {
    spec.threads = threads;
    EXPECT_EQ(sweep(s, spec).points, serial.points) << "threads=" << threads;
  }
}

TEST(SweepDeterminism, FaultAxisIsByteIdenticalAcrossThreadCounts) {
  const Stream s = clip(200);
  SweepSpec spec{.axis = SweepAxis::FaultSeverity,
                 .values = {0.0, 0.1, 0.3},
                 .policies = {"greedy"},
                 .link_factory = erasure_factory(),
                 .recovery = RecoveryConfig{.enabled = true},
                 .threads = 1};
  const auto serial = sweep(s, spec);
  ASSERT_EQ(serial.faults.size(), 3u);
  EXPECT_TRUE(serial.points.empty());
  for (unsigned threads : {2u, 8u}) {
    spec.threads = threads;
    EXPECT_EQ(sweep(s, spec).faults, serial.faults) << "threads=" << threads;
  }
}

TEST(SweepDeterminism, PointsStayInValueOrderUnderParallelism) {
  const Stream s = clip(150);
  const auto result =
      sweep(s, SweepSpec{.axis = SweepAxis::BufferMultiple,
                         .values = {8, 1, 4, 2},  // deliberately unsorted
                         .policies = {"greedy"},
                         .threads = 8});
  ASSERT_EQ(result.points.size(), 4u);
  EXPECT_EQ(result.points[0].x, 8.0);
  EXPECT_EQ(result.points[1].x, 1.0);
  EXPECT_EQ(result.points[2].x, 4.0);
  EXPECT_EQ(result.points[3].x, 2.0);
  for (const auto& point : result.points) {
    ASSERT_EQ(point.policies.size(), 1u);
    EXPECT_EQ(point.policies[0].policy, "greedy");
  }
}

TEST(SweepSpecValidation, RejectsUnrunnableSpecs) {
  const Stream s = clip(100);
  EXPECT_THROW(
      sweep(s, SweepSpec{.axis = SweepAxis::BufferMultiple,
                         .values = {2.0},
                         .policies = {}}),
      std::invalid_argument);
  EXPECT_THROW(
      sweep(s, SweepSpec{.axis = SweepAxis::FaultSeverity,
                         .values = {0.1},
                         .policies = {"greedy"}}),  // no link_factory
      std::invalid_argument);
}

// ------------------------------------------------ progress & queue wait

TEST(RunnerProgress, SerialReportsEveryTaskInOrder) {
  ParallelRunner runner(1);
  std::vector<std::function<void()>> tasks(5, [] {});
  std::vector<std::size_t> seen;
  const RunStats stats = runner.run(
      std::move(tasks),
      [&seen](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 5u);
        seen.push_back(done);
      });
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.tasks, 5u);
}

TEST(RunnerProgress, ParallelReportsEveryTaskExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<std::function<void()>> tasks(32, [] {});
  std::vector<std::size_t> seen;
  runner.run(std::move(tasks),
             [&seen](std::size_t done, std::size_t total) {
               EXPECT_EQ(total, 32u);
               seen.push_back(done);  // serialized under the merge lock
             });
  ASSERT_EQ(seen.size(), 32u);
  // `done` is a running count, so the serialized invocations see 1..32.
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(RunnerProgress, ThrowingCallbackFailsTheBatchButRunsEveryTask) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ParallelRunner runner(threads);
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> tasks(
        12, [&calls] { calls.fetch_add(1); });
    EXPECT_THROW(runner.run(tasks,
                            [](std::size_t done, std::size_t) {
                              if (done == 3) {
                                throw std::runtime_error("progress");
                              }
                            }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_EQ(calls.load(), 12) << "threads=" << threads;
  }
}

TEST(RunnerQueueWait, AccumulatesAcrossTasks) {
  ParallelRunner runner(2);
  std::vector<std::function<void()>> tasks(
      8, [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  const RunStats stats = runner.run(std::move(tasks));
  // Later tasks start after earlier ones finish, so total queueing delay is
  // strictly positive on any batch with more tasks than threads.
  EXPECT_GT(stats.queue_us, 0);
  RunStats sum = stats;
  sum += stats;
  EXPECT_EQ(sum.queue_us, 2 * stats.queue_us);
}

TEST(SweepProgress, FiresOncePerCell) {
  const Stream s = clip(120);
  std::size_t calls = 0;
  SweepSpec spec{.axis = SweepAxis::BufferMultiple,
                 .values = {2, 4},
                 .policies = {"tail-drop", "greedy"},
                 .threads = 2};
  spec.progress = [&calls](std::size_t, std::size_t total) {
    EXPECT_EQ(total, 4u);
    ++calls;
  };
  sweep(s, spec);
  EXPECT_EQ(calls, 4u);
}

// ------------------------------------------- registry thread-determinism

TEST(SweepTelemetry, RegistrySnapshotIdenticalAcrossThreadCounts) {
  const Stream s = clip(150);
  const auto snapshot = [&s](unsigned threads) {
    obs::Registry reg;
    SweepSpec spec{.axis = SweepAxis::BufferMultiple,
                   .values = {1, 2, 4},
                   .policies = {"tail-drop", "greedy"},
                   .with_optimal = true,
                   .threads = threads};
    spec.registry = &reg;
    sweep(s, spec);
    // Timers are wall-clock noise; the deterministic snapshot excludes them.
    return reg.to_json(/*include_timers=*/false).dump();
  };
  const std::string serial = snapshot(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, snapshot(4));
  EXPECT_EQ(serial, snapshot(8));
}

TEST(SweepTelemetry, FaultAxisRegistryIdenticalAcrossThreadCounts) {
  const Stream s = clip(150);
  const auto snapshot = [&s](unsigned threads) {
    obs::Registry reg;
    SweepSpec spec{.axis = SweepAxis::FaultSeverity,
                   .values = {0.0, 0.1, 0.3},
                   .policies = {"greedy"},
                   .link_factory = erasure_factory(),
                   .threads = threads};
    spec.registry = &reg;
    sweep(s, spec);
    return reg.to_json(/*include_timers=*/false).dump();
  };
  const std::string serial = snapshot(1);
  EXPECT_EQ(serial, snapshot(4));
}

TEST(SweepTelemetry, CellSpansLandInTimers) {
  const Stream s = clip(100);
  obs::Registry reg;
  SweepSpec spec{.axis = SweepAxis::BufferMultiple,
                 .values = {2, 4},
                 .policies = {"greedy"},
                 .threads = 1};
  spec.registry = &reg;
  sweep(s, spec);
  const auto it = reg.timers().find("sweep.cell");
  ASSERT_NE(it, reg.timers().end());
  EXPECT_EQ(it->second.count(), 2);  // one sample per cell
}

}  // namespace
}  // namespace rtsmooth::sim

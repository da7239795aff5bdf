// Zero-allocation guard for the simulator hot path (DESIGN.md Sect. 12).
//
// A counting global `operator new` measures heap allocations inside
// SmoothingSimulator::run(). The property is *marginal*, not absolute:
// warm-up may allocate (ring growth to steady capacity, vector reserves),
// but after warm-up each step must be allocation-free. On a periodic
// stream, a run of 2T frames performs the identical warm-up as a run of T
// frames and then executes T further steady-state steps — so
//
//     allocs(T frames) == allocs(2T frames)
//
// holds iff the marginal per-step allocation count is exactly zero. This
// is immune to the usual flakiness of "allocs < K" thresholds and fails
// loudly if anyone reintroduces a per-step std::deque node, a fresh output
// vector, or a string lookup in the loop.
//
// The guard runs with telemetry off and with the Registry + FlightRecorder
// attached (cached-pointer instruments and the recorder ring must also be
// allocation-free per step). The JSONL tracer is exempt by design — it
// builds strings. The daemon's LiveEngine gets the same marginal check over
// its recycling run table, with telemetry off and with a registry, and so
// does the gateway's step at one thread and at four, where each step hands
// its shards to the runner's parked helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/slice.h"
#include "daemon/live_engine.h"
#include "gateway/gateway.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"

// AddressSanitizer owns operator new/delete (and its allocator changes what
// allocates when); a counting replacement that forwards to malloc/free trips
// its alloc-dealloc-mismatch checker. The guard is a plain-build property —
// compiled out and skipped under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define RTSMOOTH_ALLOC_GUARD_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTSMOOTH_ALLOC_GUARD_DISABLED 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

#ifndef RTSMOOTH_ALLOC_GUARD_DISABLED
void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
#endif

}  // namespace

#ifndef RTSMOOTH_ALLOC_GUARD_DISABLED
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace rtsmooth {
namespace {

/// Identical frame every step: the 2T-frame stream's first T steps match
/// the T-frame run exactly, so warm-up allocations cancel in the
/// allocs(T) == allocs(2T) comparison.
Stream periodic_stream(Time frames) {
  std::vector<SliceRun> runs;
  runs.reserve(static_cast<std::size_t>(frames));
  for (Time f = 0; f < frames; ++f) {
    SliceRun run;
    run.arrival = f;
    run.slice_size = 1;
    run.count = 40;
    run.weight = (f % 3 == 0) ? 3.0 : 1.0;
    run.frame_type = static_cast<FrameType>(f % 4);
    run.frame_index = f;
    runs.push_back(run);
  }
  return Stream::from_runs(std::move(runs));
}

/// Balanced plan (B = R*D, client-transparent per Lemmas 3.3/3.4) but
/// oversubscribed (40 bytes/step offered vs rate 30), so the shed path —
/// the policy templates plus ServerBuffer::drop_slices — runs every step,
/// not just push/send. Balance matters: invariant *violations* are allowed
/// to allocate (incident forensics builds JSON by design), so the guard
/// must measure a violation-free steady state — and asserts it got one.
sim::SimConfig guard_config() {
  return sim::SimConfig::balanced(Planner::from_buffer_rate(60, 30));
}

std::size_t count_run_allocs(Time frames, std::string_view policy,
                             obs::Registry* registry,
                             obs::FlightRecorder* recorder) {
  const Stream stream = periodic_stream(frames);
  sim::SimConfig config = guard_config();
  config.telemetry.registry = registry;
  config.telemetry.recorder = recorder;
  sim::SmoothingSimulator simulator(stream, config, make_policy(policy));
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const SimReport report = simulator.run();
  g_counting.store(false, std::memory_order_relaxed);
  const std::size_t allocs = g_news.load(std::memory_order_relaxed);
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.played.bytes, 0);
  EXPECT_GT(report.dropped_server.bytes, 0)
      << "config no longer oversubscribes; the shed path is not exercised";
  EXPECT_EQ(report.invariants.total(), 0)
      << "violations fire the (allocation-exempt) forensics path; the guard "
         "needs a violation-free run to measure the hot path";
  return allocs;
}

class AllocGuard : public ::testing::TestWithParam<std::string> {};

TEST_P(AllocGuard, SteadyStateStepIsAllocationFree) {
#ifdef RTSMOOTH_ALLOC_GUARD_DISABLED
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#endif
  const std::size_t base = count_run_allocs(300, GetParam(), nullptr, nullptr);
  const std::size_t doubled =
      count_run_allocs(600, GetParam(), nullptr, nullptr);
  EXPECT_EQ(base, doubled)
      << "the extra 300 steps allocated " << (doubled - base)
      << " times: the hot path is no longer allocation-free after warm-up";
}

TEST_P(AllocGuard, SteadyStateStepIsAllocationFreeWithTelemetry) {
#ifdef RTSMOOTH_ALLOC_GUARD_DISABLED
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#endif
  // Fresh instruments per run: the registry's first-touch name lookups and
  // the recorder ring fill are warm-up, identical across both runs.
  obs::Registry registry_base;
  obs::FlightRecorder recorder_base({.window = 32});
  const std::size_t base =
      count_run_allocs(300, GetParam(), &registry_base, &recorder_base);
  obs::Registry registry_doubled;
  obs::FlightRecorder recorder_doubled({.window = 32});
  const std::size_t doubled =
      count_run_allocs(600, GetParam(), &registry_doubled, &recorder_doubled);
  EXPECT_EQ(base, doubled)
      << "the extra 300 steps allocated " << (doubled - base)
      << " times with telemetry attached";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AllocGuard,
                         ::testing::ValuesIn(known_policies()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// The daemon engine fed the same two frames every step, oversubscribed
/// (40 bytes offered vs rate 30) so greedy sheds every step, with a run
/// table small enough to recycle its slots hundreds of times yet never
/// refuse. Identical warm-up, so allocs(T) == allocs(2T) iff the steady
/// step is allocation-free.
std::size_t count_engine_allocs(Time steps, obs::Registry* registry) {
  daemon::EngineConfig config;
  config.rate = 30;
  config.smoothing_delay = 2;
  config.server_buffer = 60;
  config.client_buffer = 60;
  config.link_delay = 1;
  config.policy = "greedy";
  config.max_live_runs = 64;
  daemon::LiveEngine engine(config, obs::Telemetry{.registry = registry});
  const std::vector<daemon::IngestFrame> frames = {
      {.type = FrameType::I, .size = 25}, {.type = FrameType::B, .size = 15}};
  Bytes refused = 0;
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (Time t = 0; t < steps; ++t) refused += engine.step(frames).refused;
  g_counting.store(false, std::memory_order_relaxed);
  const std::size_t allocs = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(refused, 0) << "the run table refused frames";
  EXPECT_GT(engine.report().played.bytes, 0);
  EXPECT_GT(engine.report().dropped_server.bytes, 0)
      << "config no longer oversubscribes; the shed path is not exercised";
  return allocs;
}

TEST(LiveEngineAllocGuard, SteadyStateStepIsAllocationFree) {
#ifdef RTSMOOTH_ALLOC_GUARD_DISABLED
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#endif
  const std::size_t base = count_engine_allocs(300, nullptr);
  const std::size_t doubled = count_engine_allocs(600, nullptr);
  EXPECT_EQ(base, doubled)
      << "the extra 300 engine steps allocated " << (doubled - base)
      << " times: the engine is no longer allocation-free after warm-up";
}

TEST(LiveEngineAllocGuard, SteadyStateStepIsAllocationFreeWithRegistry) {
#ifdef RTSMOOTH_ALLOC_GUARD_DISABLED
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#endif
  obs::Registry registry_base;
  const std::size_t base = count_engine_allocs(300, &registry_base);
  obs::Registry registry_doubled;
  const std::size_t doubled = count_engine_allocs(600, &registry_doubled);
  EXPECT_EQ(base, doubled)
      << "the extra 300 engine steps allocated " << (doubled - base)
      << " times with a registry attached";
}

/// A gateway over periodic streams (constant gold and silver, on-off
/// bronze), so after warm-up every step repeats the same arrivals, the same
/// budgets and the same cohort ring sizes: allocs(T) == allocs(2T) iff the
/// steady step is allocation-free. Contended WeightedShare dispatches twice
/// per step (arrive, then serve); uncontended Static takes the fused pass.
std::size_t count_gateway_allocs(Time steps, unsigned threads,
                                 gateway::SharePolicy sharing,
                                 obs::Registry* registry) {
  std::vector<gateway::StreamSpec> specs;
  Bytes subscribed = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    switch (i % 3) {
      case 0:
        specs.push_back({.rate = 96, .deadline = 8, .weight_class = 0,
                         .arrivals = gateway::ArrivalModel::constant(90)});
        break;
      case 1:
        specs.push_back({.rate = 48, .deadline = 16, .weight_class = 1,
                         .arrivals = gateway::ArrivalModel::constant(40)});
        break;
      default:
        specs.push_back({.rate = 24, .deadline = 32, .weight_class = 2,
                         .arrivals = gateway::ArrivalModel::on_off(
                             64, 2, 6, static_cast<std::uint64_t>(i))});
    }
    subscribed += specs.back().rate;
  }
  const bool contended = sharing != gateway::SharePolicy::Static;
  gateway::Gateway gw(gateway::GatewayConfig{
      .rate = contended ? subscribed / 2 : subscribed,
      .class_weights = {12.0, 8.0, 1.0},
      .sharing = sharing,
      .shards = 8,
      .threads = threads,
      .telemetry = {.registry = registry}});
  for (const gateway::StreamSpec& spec : specs) gw.add_stream(spec);
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  gw.run(steps);
  g_counting.store(false, std::memory_order_relaxed);
  const std::size_t allocs = g_news.load(std::memory_order_relaxed);
  const gateway::GatewayReport report = gw.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.violations, 0);
  EXPECT_GT(report.served, 0);
  if (contended) {
    EXPECT_GT(report.dropped, 0)
        << "config no longer contends; the shed path is not exercised";
  }
  return allocs;
}

TEST(GatewayAllocGuard, SteadyStateStepIsAllocationFree) {
#ifdef RTSMOOTH_ALLOC_GUARD_DISABLED
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#endif
  for (const unsigned threads : {1U, 4U}) {
    for (const gateway::SharePolicy sharing :
         {gateway::SharePolicy::WeightedShare, gateway::SharePolicy::Static}) {
      for (const bool with_registry : {false, true}) {
        SCOPED_TRACE(std::string(gateway::to_string(sharing)) +
                     " threads=" + std::to_string(threads) +
                     (with_registry ? " with a registry" : " null telemetry"));
        // Fresh instruments per run: first-touch lookups are warm-up.
        obs::Registry registry_base;
        obs::Registry registry_doubled;
        const std::size_t base = count_gateway_allocs(
            200, threads, sharing, with_registry ? &registry_base : nullptr);
        const std::size_t doubled = count_gateway_allocs(
            400, threads, sharing,
            with_registry ? &registry_doubled : nullptr);
        EXPECT_EQ(base, doubled)
            << "the extra 200 gateway steps allocated " << (doubled - base)
            << " times: the step is no longer allocation-free after warm-up";
      }
    }
  }
}

}  // namespace
}  // namespace rtsmooth

// soak_driver: long-running churn harness for rtsmoothd (DESIGN.md Sect. 13).
//
// Runs the daemon against a synthetic, replayed, or piped frame source with
// an optional scheduled fault program (faults/fault_schedule.h) and a cycle
// of periodic reconfiguration plans chosen to visit the Sect. 3.3 waste
// cases (balanced -> rate doubled -> server-buffer deficit -> balanced).
// SIGTERM/SIGINT trigger the daemon's clean drain, so the CI soak job can
// run it unbounded and stop it on the clock; the process exits 0 iff the
// daemon's byte ledgers conserve.
//
// --alloc-guard switches to the steady-state allocation-flatness check: two
// fresh daemons serve T and 2T steps on identical configs and the marginal
// allocation count for the extra T steps must be flat (within a small
// slack), proving the serving loop recycles every buffer it touches.
// Allocations are counted by a replaced global operator new, or — under
// AddressSanitizer, which must own malloc — by ASan's allocator hooks.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/link.h"
#include "daemon/frame_source.h"
#include "daemon/rtsmoothd.h"
#include "faults/fault_schedule.h"
#include "trace/stock_clips.h"
#include "util/cli.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__)
#define SOAK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SOAK_ASAN 1
#endif
#endif
#ifndef SOAK_ASAN
#define SOAK_ASAN 0
#endif

#if SOAK_ASAN && __has_include(<sanitizer/allocator_interface.h>)
#include <sanitizer/allocator_interface.h>
#define SOAK_ASAN_HOOKS 1
#else
#define SOAK_ASAN_HOOKS 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if SOAK_ASAN_HOOKS

namespace {
void soak_malloc_hook(const volatile void*, std::size_t) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
}
void soak_free_hook(const volatile void*) {}
void install_alloc_counter() {
  __sanitizer_install_malloc_and_free_hooks(soak_malloc_hook, soak_free_hook);
}
}  // namespace

#elif !SOAK_ASAN

// GCC pairs each replaced operator new with the library delete and flags
// the std::free inside our own matched replacements; the pairing below is
// malloc/aligned_alloc <-> free throughout.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace {
void install_alloc_counter() {}
}  // namespace

#else

namespace {
// ASan build without the hooks header: run_alloc_guard compiles to the
// "skipped" branch and never calls the installer.
[[maybe_unused]] void install_alloc_counter() {}
}  // namespace

#endif

namespace {

namespace rts = rtsmooth;
using rts::Bytes;
using rts::Time;

constexpr const char* kUsage = R"(usage: soak_driver [options]
  --steps N               serving steps (0 = until source end / SIGTERM) [200000]
  --channels N            generator channels [4]
  --mean-frame N          generator mean frame bytes [64]
  --frames-per-channel N  frames per channel before End (0 = endless) [0]
  --source KIND           gen | replay:CLIP | pipe:FD [gen]
  --rate R                link rate, bytes/step [256]
  --delay D               smoothing delay [4]
  --link-delay P          propagation delay [1]
  --buffer B              server+client buffer (0 = balanced R*D) [0]
  --policy NAME           drop policy [greedy]
  --seed N                rng seed [1]
  --reconfig-every N      cycling reconfig every N steps (0 = never) [0]
  --fault-schedule S      scheduled fault program, from:loss:cap[,...]
  --fault-period N        repeat the fault program every N steps (0 = once) [0]
  --slo-stall X           stall-rate SLO [0.05]
  --slo-loss X            weighted-loss-rate SLO [0.10]
  --slo-occupancy X       occupancy SLO fraction of B [0.95]
  --slo-window N          SLO sliding window, steps [512]
  --slo-cooldown N        incident cooldown per SLO kind, steps [2048]
  --no-slo                disable the watchdog
  --no-ladder             disable the degradation ladder
  --stall-timeout N       stalled steps before the source is declared dead [0]
  --max-drain N           drain ceiling override (0 = auto) [0]
  --snapshot PATH         write the rtsmooth-soak-v1 snapshot here
  --snapshot-every N      also write the snapshot every N steps [0]
  --incident-dir DIR      write captured incidents here
  --stats-socket PATH     serve live stats on this unix socket
  --stats-publish-every N republish the endpoint payload every N steps [0]
  --series-every N        sample the registry timeline every N steps (0 = off) [0]
  --series-capacity N     timeline ring capacity, slots [256]
  --burn-short N          short burn window, slots [6]
  --burn-long N           long burn window, slots [36]
  --alloc-guard           steady-state allocation-flatness check, then exit
  --quiet                 suppress the event log)";

struct DriverOptions {
  Time steps = 200000;
  std::int64_t channels = 4;
  Bytes mean_frame = 64;
  std::int64_t frames_per_channel = 0;
  std::string source = "gen";
  Bytes rate = 256;
  Time delay = 4;
  Time link_delay = 1;
  Bytes buffer = 0;
  std::string policy = "greedy";
  std::uint64_t seed = 1;
  Time reconfig_every = 0;
  std::string fault_schedule;
  Time fault_period = 0;
  std::string snapshot_path;
  Time snapshot_every = 0;
  std::string incident_dir;
  std::string stats_socket;
  Time stats_publish_every = 0;
  Time series_every = 0;
  std::int64_t series_capacity = 256;
  std::int64_t burn_short = 6;
  std::int64_t burn_long = 36;
  Time stall_timeout = 0;
  Time max_drain = 0;
  rts::daemon::SloConfig slo;
  bool ladder = true;
  bool alloc_guard = false;
  bool quiet = false;
};

std::unique_ptr<rts::daemon::FrameSource> make_source(
    const DriverOptions& opt) {
  if (opt.source == "gen") {
    rts::daemon::GeneratorConfig cfg;
    cfg.channels = static_cast<std::int32_t>(opt.channels);
    cfg.mean_frame_bytes = opt.mean_frame;
    cfg.min_frame_bytes = std::min<Bytes>(64, std::max<Bytes>(1, opt.mean_frame / 4));
    cfg.max_frame_bytes = opt.mean_frame * 4;
    cfg.seed = opt.seed;
    cfg.frames_per_channel = opt.frames_per_channel;
    return std::make_unique<rts::daemon::GeneratorSource>(cfg);
  }
  if (opt.source.rfind("replay:", 0) == 0) {
    const std::string clip = opt.source.substr(7);
    const std::size_t frames = opt.frames_per_channel > 0
                                   ? static_cast<std::size_t>(opt.frames_per_channel)
                                   : 5000;
    return std::make_unique<rts::daemon::ReplaySource>(
        rts::trace::stock_clip(clip, frames));
  }
  if (opt.source.rfind("pipe:", 0) == 0) {
    const std::int64_t fd = rts::cli::require_int(
        std::string_view(opt.source).substr(5), "--source pipe fd", kUsage, 0,
        1 << 20);
    return std::make_unique<rts::daemon::PipeSource>(
        static_cast<int>(fd), static_cast<std::int32_t>(opt.channels));
  }
  std::fprintf(stderr, "unknown --source '%s'\n", opt.source.c_str());
  rts::cli::usage_exit(kUsage);
}

rts::daemon::DaemonOptions daemon_options(const DriverOptions& opt) {
  rts::daemon::DaemonOptions d;
  d.engine.rate = opt.rate;
  d.engine.smoothing_delay = opt.delay;
  d.engine.link_delay = opt.link_delay;
  const Bytes buffer = opt.buffer > 0 ? opt.buffer : opt.rate * opt.delay;
  d.engine.server_buffer = buffer;
  d.engine.client_buffer = buffer;
  d.engine.policy = opt.policy;
  d.engine.policy_seed = opt.seed;
  d.slo = opt.slo;
  d.ladder.enabled = opt.ladder;
  d.max_steps = opt.steps;
  d.max_drain_steps = opt.max_drain;
  d.ingest.stall_timeout_steps = opt.stall_timeout;
  d.snapshot_path = opt.snapshot_path;
  d.snapshot_every = opt.snapshot_every;
  d.incident_dir = opt.incident_dir;
  d.stats_socket_path = opt.stats_socket;
  d.stats_publish_every = opt.stats_publish_every;
  if (opt.series_every > 0) {
    d.timeline.slot_steps = opt.series_every;
    d.timeline.capacity = static_cast<std::size_t>(opt.series_capacity);
    d.timeline.short_slots = static_cast<std::size_t>(opt.burn_short);
    d.timeline.long_slots = static_cast<std::size_t>(opt.burn_long);
    d.timeline.budgets = rts::daemon::default_slo_budgets();
  }
  d.log = opt.quiet ? nullptr : &std::cerr;
  return d;
}

rts::daemon::Daemon::LinkFactory make_link_factory(const DriverOptions& opt) {
  if (opt.fault_schedule.empty()) return {};
  const std::vector<rts::faults::FaultPhase> phases =
      rts::faults::parse_fault_schedule(opt.fault_schedule, opt.fault_period);
  const std::uint64_t seed = opt.seed;
  const Time period = opt.fault_period;
  return [phases, seed, period](const rts::daemon::EngineConfig& cfg)
             -> std::unique_ptr<rts::Link> {
    return std::make_unique<rts::faults::ScheduledFaultLink>(
        std::make_unique<rts::FixedDelayLink>(cfg.link_delay), phases,
        rts::Rng(seed ^ 0x9e3779b97f4a7c15ull), -1, period);
  };
}

// Three-plan cycle visiting the Sect. 3.3 cases: double the rate (balanced
// at a new operating point), halve the server buffer (deficit + mismatch),
// return to base (balanced).
void schedule_reconfigs(rts::daemon::Daemon& daemon,
                        const DriverOptions& opt) {
  if (opt.reconfig_every <= 0) return;
  const Bytes buffer = opt.buffer > 0 ? opt.buffer : opt.rate * opt.delay;
  std::vector<rts::daemon::EnginePlan> plans;
  plans.push_back({opt.rate * 2 * opt.delay, opt.rate * 2 * opt.delay,
                   opt.rate * 2, opt.delay, opt.link_delay, ""});
  plans.push_back({std::max<Bytes>(1, buffer / 2), buffer, opt.rate,
                   opt.delay, opt.link_delay, ""});
  plans.push_back({buffer, buffer, opt.rate, opt.delay, opt.link_delay, ""});
  // A cycling program rather than a pre-enumerated schedule: endless
  // (--steps 0) soaks keep churning instead of going quiet once a fixed
  // horizon's worth of requests is exhausted.
  daemon.schedule_reconfig_cycle(opt.reconfig_every, std::move(plans));
}

int run_soak(const DriverOptions& opt) {
  rts::daemon::Daemon daemon(daemon_options(opt), make_source(opt),
                             make_link_factory(opt));
  schedule_reconfigs(daemon, opt);
  rts::daemon::install_signal_handlers(daemon);
  const int rc = daemon.serve();
  if (!opt.quiet) {
    const rts::SimReport report = daemon.total_report();
    std::fprintf(
        stderr,
        "soak: steps=%lld polled=%lld bytes, played=%lld bytes, "
        "reconfigs=%lld applied/%lld rejected, breaches=%lld, "
        "incidents=%zu captured/%lld written, rc=%d\n",
        static_cast<long long>(daemon.steps()),
        static_cast<long long>(daemon.polled_bytes()),
        static_cast<long long>(report.played.bytes),
        static_cast<long long>(daemon.reconfigs_applied()),
        static_cast<long long>(daemon.reconfigs_rejected()),
        static_cast<long long>(daemon.watchdog().breaches().total()),
        daemon.recorder().incidents().size(),
        static_cast<long long>(daemon.incidents_written()), rc);
  }
  return rc;
}

int run_alloc_guard(const DriverOptions& opt) {
#if SOAK_ASAN && !SOAK_ASAN_HOOKS
  (void)opt;
  std::fprintf(stderr,
               "alloc-guard: skipped (ASan build without allocator hooks)\n");
  return 0;
#else
  install_alloc_counter();
  // The guard measures the serving core: lossless link, no reconfigs, no
  // watchdog (incident capture allocates by design), no output files.
  DriverOptions guard = opt;
  guard.slo.enabled = false;
  guard.fault_schedule.clear();
  guard.reconfig_every = 0;
  guard.snapshot_path.clear();
  guard.snapshot_every = 0;
  guard.incident_dir.clear();
  guard.stats_socket.clear();
  guard.stats_publish_every = 0;
  guard.series_every = 0;  // timeline sampling allocates ring slots
  guard.quiet = true;
  const Time t = opt.steps > 0 ? opt.steps : 50000;
  const auto measure = [&guard](Time steps) -> std::uint64_t {
    DriverOptions run = guard;
    run.steps = steps;
    rts::daemon::Daemon daemon(daemon_options(run), make_source(run));
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const int rc = daemon.serve();
    if (rc != 0) {
      std::fprintf(stderr, "alloc-guard: daemon ledger failure (rc=%d)\n",
                   rc);
      std::exit(1);
    }
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  const std::uint64_t short_run = measure(t);
  const std::uint64_t long_run = measure(2 * t);
  const std::uint64_t growth = long_run > short_run ? long_run - short_run : 0;
  // Slack absorbs one-off lazy growth (a deque block, a pool warm-up); any
  // per-step leak at 10^4+ steps dwarfs it.
  constexpr std::uint64_t kSlack = 512;
  std::fprintf(stderr,
               "alloc-guard: %llu allocs in %lld steps vs %llu in %lld; "
               "marginal growth %llu (slack %llu)\n",
               static_cast<unsigned long long>(short_run),
               static_cast<long long>(t),
               static_cast<unsigned long long>(long_run),
               static_cast<long long>(2 * t),
               static_cast<unsigned long long>(growth),
               static_cast<unsigned long long>(kSlack));
  if (growth > kSlack) {
    std::fprintf(stderr, "alloc-guard: FAIL — steady state allocates\n");
    return 1;
  }
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using rts::cli::require_double;
  using rts::cli::require_int;
  DriverOptions opt;
  const auto need = [&](int& i) -> std::string_view {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      rts::cli::usage_exit(kUsage);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--steps") {
      opt.steps = require_int(need(i), "--steps", kUsage, 0, INT64_MAX / 4);
    } else if (arg == "--channels") {
      opt.channels = require_int(need(i), "--channels", kUsage, 1, 65536);
    } else if (arg == "--mean-frame") {
      opt.mean_frame = require_int(need(i), "--mean-frame", kUsage, 1,
                                   INT64_MAX / 8);
    } else if (arg == "--frames-per-channel") {
      opt.frames_per_channel = require_int(need(i), "--frames-per-channel",
                                           kUsage, 0, INT64_MAX / 4);
    } else if (arg == "--source") {
      opt.source = std::string(need(i));
    } else if (arg == "--rate") {
      opt.rate = require_int(need(i), "--rate", kUsage, 1, INT64_MAX / 8);
    } else if (arg == "--delay") {
      opt.delay = require_int(need(i), "--delay", kUsage, 0, 1 << 24);
    } else if (arg == "--link-delay") {
      opt.link_delay = require_int(need(i), "--link-delay", kUsage, 0,
                                   1 << 24);
    } else if (arg == "--buffer") {
      opt.buffer = require_int(need(i), "--buffer", kUsage, 0, INT64_MAX / 8);
    } else if (arg == "--policy") {
      opt.policy = std::string(need(i));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          require_int(need(i), "--seed", kUsage, 0, INT64_MAX));
    } else if (arg == "--reconfig-every") {
      opt.reconfig_every = require_int(need(i), "--reconfig-every", kUsage, 0,
                                       INT64_MAX / 4);
    } else if (arg == "--fault-schedule") {
      opt.fault_schedule = std::string(need(i));
    } else if (arg == "--fault-period") {
      opt.fault_period = require_int(need(i), "--fault-period", kUsage, 0,
                                     INT64_MAX / 4);
    } else if (arg == "--slo-stall") {
      opt.slo.max_stall_rate =
          require_double(need(i), "--slo-stall", kUsage, 0.0, 1.0);
    } else if (arg == "--slo-loss") {
      opt.slo.max_weighted_loss_rate =
          require_double(need(i), "--slo-loss", kUsage, 0.0, 1.0);
    } else if (arg == "--slo-occupancy") {
      opt.slo.max_occupancy_frac =
          require_double(need(i), "--slo-occupancy", kUsage, 0.0, 1.0);
    } else if (arg == "--slo-window") {
      opt.slo.window = require_int(need(i), "--slo-window", kUsage, 1,
                                   1 << 24);
    } else if (arg == "--slo-cooldown") {
      opt.slo.cooldown = require_int(need(i), "--slo-cooldown", kUsage, 0,
                                     INT64_MAX / 4);
    } else if (arg == "--no-slo") {
      opt.slo.enabled = false;
    } else if (arg == "--no-ladder") {
      opt.ladder = false;
    } else if (arg == "--stall-timeout") {
      opt.stall_timeout = require_int(need(i), "--stall-timeout", kUsage, 0,
                                      INT64_MAX / 4);
    } else if (arg == "--max-drain") {
      opt.max_drain = require_int(need(i), "--max-drain", kUsage, 0,
                                  INT64_MAX / 4);
    } else if (arg == "--snapshot") {
      opt.snapshot_path = std::string(need(i));
    } else if (arg == "--snapshot-every") {
      opt.snapshot_every = require_int(need(i), "--snapshot-every", kUsage, 0,
                                       INT64_MAX / 4);
    } else if (arg == "--incident-dir") {
      opt.incident_dir = std::string(need(i));
    } else if (arg == "--stats-socket") {
      opt.stats_socket = std::string(need(i));
    } else if (arg == "--stats-publish-every") {
      opt.stats_publish_every = require_int(need(i), "--stats-publish-every",
                                            kUsage, 0, INT64_MAX / 4);
    } else if (arg == "--series-every") {
      opt.series_every = require_int(need(i), "--series-every", kUsage, 0,
                                     INT64_MAX / 4);
    } else if (arg == "--series-capacity") {
      opt.series_capacity = require_int(need(i), "--series-capacity", kUsage,
                                        1, 1 << 20);
    } else if (arg == "--burn-short") {
      opt.burn_short = require_int(need(i), "--burn-short", kUsage, 1,
                                   1 << 20);
    } else if (arg == "--burn-long") {
      opt.burn_long = require_int(need(i), "--burn-long", kUsage, 1, 1 << 20);
    } else if (arg == "--alloc-guard") {
      opt.alloc_guard = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::puts(kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      rts::cli::usage_exit(kUsage);
    }
  }
  try {
    return opt.alloc_guard ? run_alloc_guard(opt) : run_soak(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak_driver: %s\n", e.what());
    return 2;
  }
}

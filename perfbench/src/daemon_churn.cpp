// daemon_churn — the operator's serving loop with telemetry always on: an
// in-process daemon::Daemon fed by a GeneratorSource at an offered load
// slightly above the link rate R, under the greedy policy.
//
// Why it exists: it is the only workload that runs the daemon's run-slot
// recycling, drain-and-replan reconfiguration (a cycle every 500 steps),
// the degradation ladder, a cycling fault link (clean, 25% loss, throttled,
// clean — the CI soak's program), the SLO watchdog, the timeline, and the
// stats endpoint republished every 4000 steps while a scraper thread reads
// /metrics and /json. It loads `daemon` and `obs`, uses `policies` lightly
// (only the overflow beyond R sheds), and bypasses `sim`, `offline` and
// `gateway`. The figure sweep never reaches these paths.
//
// One repetition: construct the daemon (set-up), then serve a fixed number
// of steps (the timed job). A benchmark-owned source wraps the generator and
// times the interval between successive polls: one serving step each.
// Checks: serve() returns 0, the report conserves, the ingest ledger
// conserves, every repetition reproduces the first report, and every scrape
// answers 200.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/frame_source.h"
#include "daemon/live_engine.h"
#include "daemon/rtsmoothd.h"
#include "faults/fault_schedule.h"
#include "harness.h"
#include "timed.h"

namespace rtbench {
namespace {

namespace daemon = rtsmooth::daemon;
using rtsmooth::Bytes;
using rtsmooth::Time;

constexpr Time kSteps = 100000;
constexpr std::int32_t kChannels = 4;
constexpr Bytes kMeanFrame = 64;  // 4 channels x 64 B = 256 B/step offered
constexpr Bytes kRate = 240;      // R: offered load is ~7% above it
constexpr Time kDelay = 4;
constexpr Time kReconfigEvery = 500;
constexpr Time kPublishEvery = 4000;
constexpr Time kTimelineEvery = 1000;
constexpr const char* kFaultProgram = "0:0:-1,2000:0.25:-1,3500:0:128,5000:0:-1";
constexpr Time kFaultPeriod = 6000;
constexpr auto kScrapeEvery = std::chrono::milliseconds(5);

/// What the benchmark's source observes of the serving loop.
struct Probe {
  bool trace = false;
  LatencyHistogram* steps = nullptr;  ///< poll-to-poll intervals
  std::atomic<std::int64_t> polls{0};
  Clock::time_point last{};
  std::int64_t interval_ns = 0;
  // Traced runs only.
  std::int64_t poll_ns = 0;
  LatencyHistogram* publish_steps = nullptr;
  LatencyHistogram* timeline_steps = nullptr;
  std::vector<daemon::IngestFrame> frames;  ///< every polled frame, in order
  std::vector<std::size_t> step_end;        ///< frames.size() after each poll
};

/// The generator behind a timing shim: the interval since the previous poll
/// is one serving step. Traced runs also time the generator itself, tag the
/// steps that republished the endpoint or sampled the timeline, and keep
/// the frames for the standalone engine replay.
class ProbedSource final : public daemon::FrameSource {
 public:
  ProbedSource(daemon::GeneratorConfig config, Probe* probe)
      : inner_(std::move(config)), probe_(probe) {}

  daemon::PollStatus poll(Time t,
                          std::vector<daemon::IngestFrame>& out) override {
    const auto now = Clock::now();
    if (probe_->polls.load(std::memory_order_relaxed) > 0) {
      const std::int64_t ns = ns_between(probe_->last, now);
      probe_->steps->record_ns(ns);
      probe_->interval_ns += ns;
      // Step t-1's tail ran publish / timeline work when t is a multiple.
      if (probe_->trace && t > 0 && t % kPublishEvery == 0) {
        probe_->publish_steps->record_ns(ns);
      } else if (probe_->trace && t > 0 && t % kTimelineEvery == 0) {
        probe_->timeline_steps->record_ns(ns);
      }
    }
    probe_->last = now;
    const std::size_t before = out.size();
    const daemon::PollStatus status = inner_.poll(t, out);
    if (probe_->trace) {
      probe_->poll_ns += ns_between(now, Clock::now());
      probe_->frames.insert(probe_->frames.end(),
                            out.begin() + static_cast<std::ptrdiff_t>(before),
                            out.end());
      probe_->step_end.push_back(probe_->frames.size());
    }
    probe_->polls.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  std::int32_t channels() const override { return inner_.channels(); }

 private:
  daemon::GeneratorSource inner_;
  Probe* probe_;
};

/// One HTTP/1.0 GET over the unix socket; the status code, or -1 when the
/// exchange itself fails.
int scrape(const std::string& path, const char* target) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int status = -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string request =
        std::string("GET ") + target + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      std::string response;
      char buf[8192];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
      if (n == 0 && response.rfind("HTTP/1.", 0) == 0 &&
          response.size() > 12) {
        status = std::atoi(response.c_str() + 9);
      }
    }
  }
  ::close(fd);
  return status;
}

/// Scrapes /metrics and /json alternately on a fixed schedule, from the
/// first serving step until stop().
class Scraper {
 public:
  /// `latency` receives every scrape's round trip; read it after stop().
  Scraper(std::string path, const std::atomic<std::int64_t>* polls,
          LatencyHistogram* latency)
      : path_(std::move(path)),
        polls_(polls),
        latency_(latency),
        thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  std::int64_t scrapes() const { return scrapes_; }
  std::int64_t failures() const { return failures_; }

 private:
  void loop() {
    while (!stop_.load() && polls_->load(std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    bool metrics = true;
    while (!stop_.load()) {
      const auto t0 = Clock::now();
      const int status = scrape(path_, metrics ? "/metrics" : "/json");
      latency_->record_ns(ns_between(t0, Clock::now()));
      ++scrapes_;
      if (status != 200) ++failures_;
      metrics = !metrics;
      std::this_thread::sleep_for(kScrapeEvery);
    }
  }

  std::string path_;
  const std::atomic<std::int64_t>* polls_;
  LatencyHistogram* latency_;
  std::atomic<bool> stop_{false};
  std::int64_t scrapes_ = 0;
  std::int64_t failures_ = 0;
  std::thread thread_;  // last: starts once the members above exist
};

daemon::DaemonOptions daemon_options(std::uint64_t seed,
                                     const std::string& socket) {
  daemon::DaemonOptions d;
  d.engine.rate = kRate;
  d.engine.smoothing_delay = kDelay;
  d.engine.link_delay = 1;
  d.engine.server_buffer = kRate * kDelay;
  d.engine.client_buffer = kRate * kDelay;
  d.engine.policy = "greedy";
  d.engine.policy_seed = seed;
  d.slo.window = 512;
  d.slo.cooldown = 2048;
  d.max_steps = kSteps;
  d.stats_socket_path = socket;
  d.stats_publish_every = kPublishEvery;
  d.timeline.slot_steps = kTimelineEvery;
  d.timeline.budgets = daemon::default_slo_budgets();
  return d;
}

daemon::GeneratorConfig generator_config(std::uint64_t seed) {
  daemon::GeneratorConfig g;
  g.channels = kChannels;
  g.mean_frame_bytes = kMeanFrame;
  g.min_frame_bytes = kMeanFrame / 4;
  g.max_frame_bytes = kMeanFrame * 4;
  g.seed = mix_seed(seed, 2);
  return g;
}

/// The soak driver's three-plan cycle over the Sect. 3.3 cases: double the
/// rate, halve the server buffer, return to base.
std::vector<daemon::EnginePlan> reconfig_plans() {
  const Bytes buffer = kRate * kDelay;
  return {{2 * buffer, 2 * buffer, 2 * kRate, kDelay, 1, ""},
          {buffer / 2, buffer, kRate, kDelay, 1, ""},
          {buffer, buffer, kRate, kDelay, 1, ""}};
}

daemon::Daemon::LinkFactory link_factory(std::uint64_t seed,
                                         LayerClock* timed) {
  const std::vector<rtsmooth::faults::FaultPhase> phases =
      rtsmooth::faults::parse_fault_schedule(kFaultProgram);
  const std::uint64_t link_seed = mix_seed(seed, 1);
  return [phases, link_seed, timed](const daemon::EngineConfig& cfg)
             -> std::unique_ptr<rtsmooth::Link> {
    std::unique_ptr<rtsmooth::Link> link =
        std::make_unique<rtsmooth::faults::ScheduledFaultLink>(
            std::make_unique<rtsmooth::FixedDelayLink>(cfg.link_delay), phases,
            rtsmooth::Rng(link_seed), -1, kFaultPeriod);
    if (timed != nullptr) {
      link = std::make_unique<TimedLink>(std::move(link), timed);
    }
    return link;
  };
}

std::int64_t json_int(const rtsmooth::obs::Json& doc, const char* section,
                      const char* key) {
  const rtsmooth::obs::Json* s = doc.find(section);
  const rtsmooth::obs::Json* v = s != nullptr ? s->find(key) : nullptr;
  return v != nullptr ? v->as_int() : 0;
}

/// Replays the polled frames into a standalone LiveEngine at the initial
/// provisioning, timing each step; returns the total engine time.
double replay_engine(const Probe& probe, std::uint64_t seed,
                     rtsmooth::obs::Registry* registry,
                     LatencyHistogram* steps) {
  daemon::EngineConfig config = daemon_options(seed, "").engine;
  daemon::LiveEngine engine(config, rtsmooth::obs::Telemetry{.registry = registry});
  std::int64_t total_ns = 0;
  std::size_t begin = 0;
  for (const std::size_t end : probe.step_end) {
    const std::span<const daemon::IngestFrame> frames(
        probe.frames.data() + begin, end - begin);
    const auto t0 = Clock::now();
    engine.step(frames);
    const std::int64_t ns = ns_between(t0, Clock::now());
    total_ns += ns;
    if (steps != nullptr) steps->record_ns(ns);
    begin = end;
  }
  return static_cast<double>(total_ns) * 1e-9;
}

}  // namespace

void run_daemon_churn(const Options& opts, Report& report) {
  const std::string socket =
      ".bench_build/rtbench-" + std::to_string(::getpid()) + ".sock";
  JobTimes e2e;
  RepSeries layer;
  StepSamples step_latency;
  LatencyHistogram publish_steps;
  LatencyHistogram timeline_steps;
  LatencyHistogram engine_steps;
  LatencyHistogram scrape_latency;
  std::optional<rtsmooth::SimReport> first;
  double weighted_loss = 0;

  RepLoop loop(opts.seconds);
  while (loop.next()) {
    // Untraced repetitions measure the end-to-end numbers; a traced run
    // alternates them with traced ones.
    for (const bool traced : {false, true}) {
      if (traced && !opts.trace) break;
      Probe probe;
      probe.trace = traced;
      LatencyHistogram traced_steps;  // not an end-to-end sample
      probe.steps = traced ? &traced_steps : &step_latency.next_rep();
      probe.publish_steps = &publish_steps;
      probe.timeline_steps = &timeline_steps;
      LayerClock link{64};

      const auto t0 = Clock::now();
      daemon::Daemon d(
          daemon_options(opts.seed, socket),
          std::make_unique<ProbedSource>(generator_config(opts.seed), &probe),
          link_factory(opts.seed, traced ? &link : nullptr));
      d.schedule_reconfig_cycle(kReconfigEvery, reconfig_plans());
      const double setup_s = seconds_since(t0);

      Scraper scraper(socket, &probe.polls, &scrape_latency);
      const auto t1 = Clock::now();
      const int rc = d.serve();
      const double job_s = seconds_since(t1);
      scraper.stop();

      const rtsmooth::SimReport total = d.total_report();
      report.check(rc == 0 && total.conserves() && d.ingest_ledger_conserves(),
                   "daemon: serve() failed or a ledger does not conserve");
      if (!first) {
        first = total;
        weighted_loss = total.weighted_loss();
      } else {
        report.check(total == *first, "repetition differs from the first");
      }
      report.check_many(scraper.scrapes(), scraper.failures(),
                        "daemon: a scrape did not answer 200");

      if (!traced) {
        // The serving loop is single-threaded: the 1-thread rate is the
        // same run.
        e2e.setup_s.push_back(setup_s);
        e2e.job_s.push_back(job_s);
        e2e.work = static_cast<double>(d.steps());
        layer.add("job_s", job_s);
        layer.add("obs.scrapes", static_cast<double>(scraper.scrapes()));
        continue;
      }
      const rtsmooth::obs::Json snapshot = d.snapshot();
      layer.add("traced_s", job_s);
      layer.add("daemon.poll_s", static_cast<double>(probe.poll_ns) * 1e-9);
      layer.add("core.link_calls", static_cast<double>(link.calls()));
      layer.add("core.link_s", link.seconds());
      rtsmooth::obs::Registry replay_registry;
      const double engine_s =
          replay_engine(probe, opts.seed, &replay_registry, &engine_steps);
      const double engine_null_s =
          replay_engine(probe, opts.seed, nullptr, nullptr);
      layer.add("obs.registry_overhead_s", engine_s - engine_null_s);
      const double interval_s = static_cast<double>(probe.interval_ns) * 1e-9;
      layer.add("interval_s", interval_s);
      layer.add("daemon.loop_rest_s",
                interval_s - static_cast<double>(probe.poll_ns) * 1e-9 -
                    engine_s);
      layer.add("daemon.reconfigs",
                static_cast<double>(d.reconfigs_applied()));
      layer.add("daemon.drain_steps", static_cast<double>(json_int(
                                          snapshot, "reconfigs", "drain_steps")));
      layer.add("daemon.polled_bytes", static_cast<double>(d.polled_bytes()));
      layer.add("daemon.admitted_bytes",
                static_cast<double>(
                    json_int(snapshot, "admission", "admitted_bytes")));
      layer.add("daemon.refused_bytes",
                static_cast<double>(
                    json_int(snapshot, "admission", "budget_refused_bytes") +
                    json_int(snapshot, "admission", "slot_refused_bytes")));
      // Whole channels shed at ingest, plus the server's drops (Eq. (3)
      // overflow and the ladder's value-floor shed, which lands there too).
      layer.add("daemon.shed_bytes",
                static_cast<double>(
                    json_int(snapshot, "admission", "channel_shed_bytes") +
                    total.dropped_server.bytes));
      const auto& timers = d.registry().timers();
      if (const auto it = timers.find("policy.drop"); it != timers.end()) {
        layer.add("policies.drop_timer_count",
                  static_cast<double>(it->second.count()));
        layer.add("policies.drop_timer_mean_us", it->second.mean());
      }
    }
  }

  check_reference(opts, weighted_loss, report);
  report.metric("weighted_loss", weighted_loss);
  report.metric("peak_rss_mb", peak_rss_mb());
  step_latency.report(report);
  if (!opts.trace) {
    e2e.report(report);
    return;
  }
  layer.emit_medians(report);
  report.metric("obs.publish_step_us", publish_steps.percentile_us(0.5));
  report.metric("obs.timeline_step_us", timeline_steps.percentile_us(0.5));
  report.samples("obs.publish_step_us", publish_steps.count());
  report.samples("obs.timeline_step_us", timeline_steps.count());
  report.metric("obs.scrape_p50_us", scrape_latency.percentile_us(0.50));
  report.metric("obs.scrape_p99_us", scrape_latency.percentile_us(0.99));
  report.samples("obs.scrape_p50_us", scrape_latency.count());
  report.samples("obs.scrape_p99_us", scrape_latency.count());
  report.metric("daemon.engine_step_p50_us", engine_steps.percentile_us(0.50));
  report.metric("daemon.engine_step_p99_us", engine_steps.percentile_us(0.99));
  report.samples("daemon.engine_step_p50_us", engine_steps.count());
  report.samples("daemon.engine_step_p99_us", engine_steps.count());
  // The traced step intervals cover the serving loop; serve() adds only the
  // start-up publish and the shutdown drain around them.
  reconcile("daemon_churn (traced step intervals vs untraced serve())",
            layer.min_of("interval_s"), layer.min_of("job_s"), 0.25,
            report);
  report.metric("bench.trace_overhead_s",
                layer.min_of("traced_s") - layer.min_of("job_s"));
}

}  // namespace rtbench

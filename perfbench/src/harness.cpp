#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.h"

namespace rtbench {
namespace {

constexpr std::size_t kSub = 64;      // buckets per octave, and exact range
constexpr std::size_t kOctaves = 58;  // 2^6 .. 2^63 ns

std::size_t bucket_of(std::int64_t ns) {
  if (ns < static_cast<std::int64_t>(kSub)) {
    return static_cast<std::size_t>(std::max<std::int64_t>(ns, 0));
  }
  const auto u = static_cast<std::uint64_t>(ns);
  const int octave = 63 - std::countl_zero(u);  // >= 6
  const auto sub = (u >> (octave - 6)) - kSub;
  return kSub + static_cast<std::size_t>(octave - 6) * kSub +
         static_cast<std::size_t>(sub);
}

/// [lower, lower + width) in ns of bucket `i`.
void bucket_range(std::size_t i, double& lower, double& width) {
  if (i < kSub) {
    lower = static_cast<double>(i);
    width = 1.0;
    return;
  }
  const std::size_t octave = (i - kSub) / kSub + 6;
  const std::size_t sub = (i - kSub) % kSub;
  width = std::ldexp(1.0, static_cast<int>(octave) - 6);
  lower = static_cast<double>(kSub + sub) * width;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kSub + kOctaves * kSub, 0) {}

void LatencyHistogram::record_ns(std::int64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

LatencyHistogram& StepSamples::next_rep() {
  fold_rep(kMinSamples);
  return rep_;
}

void StepSamples::fold_rep(std::int64_t min_samples) {
  stretch_.merge(rep_);
  rep_ = LatencyHistogram();
  if (stretch_.count() == 0 || stretch_.count() < min_samples) return;
  const double p50 = stretch_.percentile_us(0.50);
  if (stretches_ == 0) {
    best_p50_us_ = p50;
    fewest_ = stretch_.count();
  } else {
    best_p50_us_ = std::min(best_p50_us_, p50);
    fewest_ = std::min(fewest_, stretch_.count());
  }
  ++stretches_;
  stretch_ = LatencyHistogram();
}

void StepSamples::report(Report& report) {
  fold_rep(stretches_ == 0 ? 1 : kMinSamples);
  report.metric("step_p50_us", best_p50_us_);
  report.samples("step_p50_us", fewest_);
  report.samples("step_stretches", stretches_);
}

double LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      double lower = 0.0;
      double width = 0.0;
      bucket_range(i, lower, width);
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      return (lower + frac * width) / 1000.0;
    }
    cum += c;
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double RepSeries::median_of(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : median(it->second);
}

double RepSeries::min_of(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() || it->second.empty()
             ? 0.0
             : *std::min_element(it->second.begin(), it->second.end());
}

void RepSeries::emit_medians(Report& report) const {
  for (const auto& [name, values] : values_) {
    report.metric(name, median(values));
    report.samples(name, static_cast<std::int64_t>(values.size()));
    report.spread(name, *std::min_element(values.begin(), values.end()),
                  *std::max_element(values.begin(), values.end()));
  }
}

void JobTimes::report(Report& report) const {
  // Records the repetition count and range; returns the fastest.
  const auto fastest = [&report](const std::string& name,
                                 const std::vector<double>& values) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    report.samples(name, static_cast<std::int64_t>(values.size()));
    report.spread(name, *lo, *hi);
    return *lo;
  };
  report.metric("setup_s", fastest("setup_s", setup_s));
  const double job = fastest("job_s", job_s);
  const double job_1t = job_1t_s.empty() ? job : fastest("job_1t_s", job_1t_s);
  report.metric("job_s", job);
  report.metric("steps_per_s", work / job);
  report.metric("steps_per_s_1t", work / job_1t);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RepLoop::RepLoop(double seconds, int min_reps)
    : seconds_(seconds), min_reps_(min_reps), start_(Clock::now()) {}

bool RepLoop::next() {
  if (reps_ == 0 || (seconds_ > 0 && (reps_ < min_reps_ ||
                                      seconds_since(start_) < seconds_))) {
    ++reps_;
    return true;
  }
  return false;
}

unsigned bench_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::cerr << "rtbench: check failed: " << what << "\n";
}

void Report::check_many(std::int64_t attempted, std::int64_t failed,
                        std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "rtbench: " << failed << " of " << attempted
              << " failed: " << what << "\n";
  }
}

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::samples(const std::string& name, std::int64_t count) {
  samples_[name] = count;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"job_s", "s"},
      {"steps_per_s", "1/s"},    {"steps_per_s_1t", "1/s"},
      {"step_p50_us", "us"},     {"weighted_loss", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"trace.generate_s", "s"},
      {"trace.slice_s", "s"},
      {"sim.sweep_wall_s", "s"},
      {"sim.cell_busy_s", "s"},
      {"sim.cell_max_s", "s"},
      {"sim.runner_idle_share", "ratio"},
      {"sim.simulate_s", "s"},
      {"sim.slots", "count"},
      {"sim.ns_per_slot", "ns"},
      {"sim.runner_dispatch_us", "us"},
      {"core.quiescent_slot_share", "ratio"},
      {"core.link_calls", "count"},
      {"core.link_s", "s"},
      {"core.server_client_s", "s"},
      {"policies.tail-drop.shed_calls", "count"},
      {"policies.tail-drop.shed_bytes", "bytes"},
      {"policies.tail-drop.shed_s", "s"},
      {"policies.greedy.shed_calls", "count"},
      {"policies.greedy.shed_bytes", "bytes"},
      {"policies.greedy.shed_s", "s"},
      {"policies.drop_timer_count", "count"},
      {"policies.drop_timer_mean_us", "us"},
      {"offline.optimal_calls", "count"},
      {"offline.optimal_s", "s"},
      {"obs.registry_overhead_s", "s"},
      {"obs.publish_step_us", "us"},
      {"obs.timeline_step_us", "us"},
      {"obs.scrape_p50_us", "us"},
      {"obs.scrape_p99_us", "us"},
      {"obs.scrapes", "count"},
      {"daemon.poll_s", "s"},
      {"daemon.engine_step_p50_us", "us"},
      {"daemon.engine_step_p99_us", "us"},
      {"daemon.loop_rest_s", "s"},
      {"daemon.reconfigs", "count"},
      {"daemon.drain_steps", "count"},
      {"daemon.polled_bytes", "bytes"},
      {"daemon.admitted_bytes", "bytes"},
      {"daemon.refused_bytes", "bytes"},
      {"daemon.shed_bytes", "bytes"},
      {"gateway.weighted.step_p50_us", "us"},
      {"gateway.weighted.step_p99_us", "us"},
      {"gateway.static.step_p50_us", "us"},
      {"gateway.static.step_p99_us", "us"},
      {"gateway.add_stream_us", "us"},
      {"gateway.remove_stream_us", "us"},
      {"gateway.runner_busy_s", "s"},
      {"gateway.runner_wall_s", "s"},
      {"bench.reconcile_error", "ratio"},
      {"bench.trace_overhead_s", "s"},
  };
  return specs;
}

void check_reference(const Options& opts, double weighted_loss,
                     Report& report) {
  std::ifstream in(opts.reference_path);
  if (!in) {
    throw std::runtime_error("cannot read reference file " +
                             opts.reference_path);
  }
  std::stringstream text;
  text << in.rdbuf();
  const rtsmooth::obs::Json doc = rtsmooth::obs::Json::parse(text.str());
  const rtsmooth::obs::Json* seed = doc.find("seed");
  if (seed == nullptr ||
      static_cast<std::uint64_t>(seed->as_int()) != opts.seed) {
    return;
  }
  const rtsmooth::obs::Json* losses = doc.find("weighted_loss");
  const rtsmooth::obs::Json* expected =
      losses != nullptr ? losses->find(opts.workload) : nullptr;
  if (expected == nullptr) {
    report.check(false, "no stored weighted_loss reference for " +
                            opts.workload);
    return;
  }
  const double want = expected->as_double();
  const bool ok = std::abs(weighted_loss - want) <=
                  1e-9 * std::max(1.0, std::abs(want));
  std::ostringstream what;
  what.precision(17);
  what << "weighted_loss " << weighted_loss << " != reference " << want;
  report.check(ok, what.str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double clock_read_ns() {
  static const double cost = [] {
    constexpr int kReads = 1 << 20;
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads / 2; ++i) {
      const auto a = Clock::now();
      sink += ns_between(a, Clock::now());
    }
    const double total_ns = static_cast<double>(ns_between(t0, Clock::now()));
    return sink >= 0 ? total_ns / kReads : 0.0;
  }();
  return cost;
}

void reconcile(const std::string& what, double layers_s, double end_to_end_s,
               double tolerance, Report& report) {
  const double error =
      end_to_end_s > 0 ? std::abs(layers_s - end_to_end_s) / end_to_end_s
                       : 1.0;
  std::ostringstream line;
  line.precision(6);
  line << "reconcile " << what << ": layers " << layers_s
       << " s vs end-to-end " << end_to_end_s << " s, gap " << 100 * error
       << "% (tolerance " << 100 * tolerance << "%) "
       << (error <= tolerance ? "OK" : "OUT OF TOLERANCE");
  report.note(line.str());
  report.metric("bench.reconcile_error", error);
}

}  // namespace rtbench

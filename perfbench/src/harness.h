// Shared scaffolding of the rtsmooth benchmark: clocks, a log-bucketed
// latency histogram, repetition control, the result ledger every workload
// fills, and the metric tables BENCHMARK.json mirrors.
//
// A run is one workload at one seed. It repeats the workload's fixed job
// (set-up, then the timed job) until --seconds have passed, checks every
// output, and prints one JSON result line. Set-up and job times and the
// step median come from the repetitions least disturbed by other load (see
// JobTimes and StepSamples). The sample
// count behind each value is printed on the detail line before the
// result.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rtbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Latency distribution with constant memory: exact below 64 ns, then 64
/// buckets per octave (about 1.1% wide). Percentiles interpolate within a
/// bucket by rank, so they resolve changes well below any metric's bound.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record_ns(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  std::int64_t count() const { return count_; }
  /// q in [0, 1]; 0 when empty.
  double percentile_us(double q) const;

 private:
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
};

class Report;

/// Step latencies of a run. Consecutive repetitions are grouped into
/// stretches of at least kMinSamples samples (one repetition when it holds
/// that many); the median is reported from the stretch where it is lowest —
/// the stretch least disturbed by other load on a shared host, which only
/// ever adds time. (A p99 is not reported: on a shared host the top 1% of
/// steps are the ones other load hit, and it did not repeat across runs.)
/// Finished stretches keep only their median, so memory does not grow
/// with the number of repetitions (peak_rss_mb must not depend on speed).
class StepSamples {
 public:
  static constexpr std::int64_t kMinSamples = 1000;

  /// The histogram of a new repetition; valid until the next call.
  LatencyHistogram& next_rep();
  /// Reports step_p50_us, the samples in the smallest stretch and the
  /// number of stretches. A trailing stretch short of kMinSamples counts
  /// only when it is the only one.
  void report(Report& report);

 private:
  /// Folds the current repetition into the open stretch; closes the
  /// stretch once it holds `min_samples`.
  void fold_rep(std::int64_t min_samples);

  LatencyHistogram rep_;
  LatencyHistogram stretch_;
  double best_p50_us_ = 0;
  std::int64_t fewest_ = 0;
  std::int64_t stretches_ = 0;
};

double median(std::vector<double> values);

/// Per-repetition values of named quantities; their medians become metrics.
class RepSeries {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double median_of(const std::string& name) const;
  /// The fastest repetition: what reconciliation and tracing overhead
  /// compare, for the reason JobTimes gives.
  double min_of(const std::string& name) const;
  /// Reports the median of every series under its own name, and its
  /// repetition count and spread on the detail line.
  void emit_medians(Report& report) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// A workload's end-to-end timings, one entry per repetition. Set-up and
/// job are each reported as their fastest repetition, the one least
/// disturbed by other load on a shared host (noise only ever adds time; the
/// median set-up of two ten-seed rounds differed by 29% on sim_sparse, the
/// fastest by 1.4%). Rates are the job's fixed `work` (steps per job) over
/// the fastest job time.
struct JobTimes {
  std::vector<double> setup_s;
  std::vector<double> job_s;     ///< at the benchmark's thread width
  std::vector<double> job_1t_s;  ///< at one thread; empty when the same
  double work = 0;

  /// setup_s, job_s, steps_per_s and steps_per_s_1t.
  void report(Report& report) const;
};

/// Independent 64-bit seed for sub-stream `stream` of run seed `seed`
/// (splitmix64), so each generated input has its own seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Repetition control: the first repetition always runs; more run while the
/// measuring window (`seconds`) is open, at least `min_reps` in all.
/// seconds == 0 runs exactly one repetition (the untimed check).
class RepLoop {
 public:
  RepLoop(double seconds, int min_reps = 3);
  bool next();
  int reps() const { return reps_; }

 private:
  double seconds_;
  int min_reps_;
  int reps_ = 0;
  Clock::time_point start_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference_path;  ///< stored weighted_loss references
  std::string revision;        ///< source revision for the fingerprint
};

/// Thread width of the parallel phases: the machine's, capped at 4.
unsigned bench_threads();

/// Everything one run reports. Workloads call check() once per operation
/// they verify (a sweep cell, a simulate() call, a serving repetition, a
/// scrape, a gateway phase), metric() for each value, and note() for the
/// human-readable lines (reconciliation, overhead) printed before the JSON.
class Report {
 public:
  /// Counts one attempted operation; a false `ok` counts it failed and
  /// logs `what` to stderr (the first few only).
  void check(bool ok, std::string_view what);
  /// Counts `attempted` operations of which `failed` failed.
  void check_many(std::int64_t attempted, std::int64_t failed,
                  std::string_view what);
  void metric(const std::string& name, double value);
  void samples(const std::string& name, std::int64_t count);
  /// Lowest and highest repetition behind a median.
  void spread(const std::string& name, double lowest, double highest) {
    spreads_[name] = {lowest, highest};
  }
  void note(const std::string& line);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, std::int64_t>& sample_counts() const {
    return samples_;
  }
  const std::map<std::string, std::pair<double, double>>& spreads() const {
    return spreads_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::int64_t> samples_;
  std::map<std::string, std::pair<double, double>> spreads_;
  std::vector<std::string> notes_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, and the per-layer
/// metrics every traced run prints (0 where a layer does not apply to the
/// workload). BENCHMARK.json lists the same names; run.py checks they agree.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Compares a run's weighted loss against the reference stored for the
/// default seed (counted as one checked operation). Other seeds have no
/// reference and skip the check.
void check_reference(const Options& opts, double weighted_loss,
                     Report& report);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Cost of one steady_clock read in ns, calibrated once per process. A timed
/// region reads as about this much longer than its work; layer clocks
/// subtract it from every timed call.
double clock_read_ns();

/// Prints the reconciliation line: layer times against the untraced
/// end-to-end time they should add up to, and whether the gap is within
/// `tolerance` (a share of the end-to-end time). Also reports
/// bench.reconcile_error.
void reconcile(const std::string& what, double layers_s, double end_to_end_s,
               double tolerance, Report& report);

// The workloads, one file each; README.md says why each exists.
void run_sweep_dense(const Options& opts, Report& report);
void run_sim_sparse(const Options& opts, Report& report);
void run_daemon_churn(const Options& opts, Report& report);
void run_gateway_mux(const Options& opts, Report& report);

}  // namespace rtbench

// Shared scaffolding for the figure/table benches: the reference clip, the
// standard policy set, table/CSV emission, BENCH_*.json reports and a tiny
// flag parser.
//
// Every bench accepts:
//   --frames N     clip length (default per bench)
//   --csv PATH     additionally dump the series as CSV
//   --json PATH    additionally dump tables + RunStats + telemetry registry
//                  as a machine-readable rtsmooth-bench-v1 document
//   --quick        shrink the workload (used by the build's smoke run)
//   --threads N    ParallelRunner pool width (default: RTSMOOTH_THREADS,
//                  else every hardware thread; 1 = serial)

#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/telemetry.h"
#include "sim/runner.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"

namespace rtsmooth::bench {

struct BenchOptions {
  std::size_t frames = 0;  ///< 0 = use the bench's default
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  bool quick = false;
  unsigned threads = 0;  ///< 0 = RTSMOOTH_THREADS / hardware width
};

inline constexpr const char* kBenchUsage =
    "options: [--frames N] [--csv PATH] [--json PATH] [--quick] "
    "[--threads N]";

/// Parses the common flags. A malformed or out-of-range number exits 2
/// with a message, like every other binary in the repo.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--frames" && i + 1 < argc) {
      opts.frames = static_cast<std::size_t>(
          cli::require_int(argv[++i], "--frames", kBenchUsage, 0, 1 << 24));
    } else if (arg == "--csv" && i + 1 < argc) {
      opts.csv_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.threads = static_cast<unsigned>(
          cli::require_int(argv[++i], "--threads", kBenchUsage, 0, 256));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kBenchUsage << "\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      cli::usage_exit(kBenchUsage);
    }
  }
  return opts;
}

/// One-line batch timing footer, printed by every bench that fans work out
/// over a ParallelRunner.
inline void print_run_stats(const sim::RunStats& stats) {
  std::cout << "\n[runner] " << stats.summary() << "\n";
}

/// The paper-calibrated reference clip at the requested granularity.
inline Stream reference_stream(trace::Slicing slicing, std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(), slicing);
}

/// A printable series: header plus rows of preformatted cells.
struct Series {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  void add(std::vector<std::string> row) { rows.push_back(std::move(row)); }

  /// Prints as an aligned table and mirrors to CSV when requested.
  void emit(const BenchOptions& opts) const {
    Table table(header);
    for (const auto& row : rows) table.add_row(row);
    table.print(std::cout);
    if (opts.csv_path) {
      CsvWriter csv(*opts.csv_path);
      csv.row(header);
      for (const auto& row : rows) csv.row(row);
      std::cout << "(csv written to " << *opts.csv_path << ")\n";
    }
  }
};

/// Builder for the machine-readable `rtsmooth-bench-v1` document behind
/// `--json PATH`. Top-level keys, in order:
///
///   schema    "rtsmooth-bench-v1"
///   bench     the bench's name (matches the executable)
///   options   {frames, quick, threads} as requested on the command line
///   series    [{name, header, rows}] — the same cells the tables print
///   runner    {tasks, threads, total_task_us, max_task_us, queue_us,
///              wall_us} from the batch RunStats
///   registry  merged telemetry Registry snapshot (counters/gauges/
///             histograms), deterministic across thread counts
///   timers    Span timing histograms, quarantined here because wall-clock
///             samples are NOT deterministic; strip `runner` + `timers`
///             before diffing documents from different thread counts
///
/// All add_* calls are no-ops when --json was not passed, so benches can
/// call them unconditionally.
class JsonReport {
 public:
  JsonReport(std::string_view bench, const BenchOptions& opts)
      : path_(opts.json_path) {
    if (!path_) return;
    doc_["schema"] = "rtsmooth-bench-v1";
    doc_["bench"] = std::string(bench);
    obs::Json options = obs::Json::object();
    options["frames"] = static_cast<std::int64_t>(opts.frames);
    options["quick"] = opts.quick;
    options["threads"] = static_cast<std::int64_t>(opts.threads);
    doc_["options"] = std::move(options);
    doc_["series"] = obs::Json::array();
  }

  bool enabled() const { return path_.has_value(); }

  /// Mirrors a printed table into the document.
  void add_series(std::string_view name, const Series& series) {
    if (!path_) return;
    obs::Json entry = obs::Json::object();
    entry["name"] = std::string(name);
    obs::Json header = obs::Json::array();
    for (const auto& cell : series.header) header.push_back(cell);
    entry["header"] = std::move(header);
    obs::Json rows = obs::Json::array();
    for (const auto& row : series.rows) {
      obs::Json cells = obs::Json::array();
      for (const auto& cell : row) cells.push_back(cell);
      rows.push_back(std::move(cells));
    }
    entry["rows"] = std::move(rows);
    doc_["series"].push_back(std::move(entry));
  }

  /// Attaches a custom top-level section. tools/bench_diff.py compares only
  /// the schema's own keys (bench/options/series/registry), so extra
  /// sections are quarantined by construction — the place for wall-clock
  /// measurements like the gateway's stream-steps/sec that must not gate
  /// the determinism diff.
  void add_section(std::string_view name, obs::Json value) {
    if (!path_) return;
    doc_[std::string(name)] = std::move(value);
  }

  /// Serializes and writes the document. `registry` may be empty (benches
  /// that fan out nothing still emit the `registry`/`timers` keys so every
  /// document has the same shape).
  void write(const sim::RunStats& stats, const obs::Registry& registry) {
    if (!path_) return;
    obs::Json runner = obs::Json::object();
    runner["tasks"] = static_cast<std::int64_t>(stats.tasks);
    runner["threads"] = static_cast<std::int64_t>(stats.threads);
    runner["total_task_us"] = stats.total_task_us;
    runner["max_task_us"] = stats.max_task_us;
    runner["queue_us"] = stats.queue_us;
    runner["wall_us"] = stats.wall_us;
    doc_["runner"] = std::move(runner);
    obs::Json snapshot = registry.to_json(/*include_timers=*/true);
    obs::Json deterministic = obs::Json::object();
    deterministic["counters"] = snapshot["counters"];
    deterministic["gauges"] = snapshot["gauges"];
    deterministic["histograms"] = snapshot["histograms"];
    doc_["registry"] = std::move(deterministic);
    doc_["timers"] = snapshot["timers"];
    std::ofstream out(*path_);
    if (!out) {
      throw std::runtime_error("JsonReport: cannot open " + *path_);
    }
    doc_.write(out);
    out << "\n";
    std::cout << "(json written to " << *path_ << ")\n";
  }

 private:
  std::optional<std::string> path_;
  obs::Json doc_ = obs::Json::object();
};

}  // namespace rtsmooth::bench

// rtbench: runs one benchmark workload and prints its result.
//
//   rtbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--reference PATH] [--revision REV]
//
// Output, on stdout: human-readable notes (reconciliation, tracing
// overhead), a detail line {"detail": {...}} with the machine fingerprint,
// the sample count behind every percentile and the failed-operation ratio,
// then the result line {"correct", "attempted", "failed", "metrics"}.
// --trace 0 prints every end-to-end metric; --trace 1 every per-layer metric
// (0 for a layer the workload does not exercise). --seconds 0 runs one
// repetition: the untimed check. See README.md.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "harness.h"
#include "obs/json.h"

namespace {

using rtsmooth::obs::Json;
using namespace rtbench;

constexpr const char* kUsage =
    "usage: rtbench --workload sweep_dense|sim_sparse|daemon_churn|gateway_mux"
    " [--seed N] [--seconds S] [--trace 0|1] [--reference PATH]"
    " [--revision REV]\n";

[[noreturn]] void usage_exit() {
  std::cerr << kUsage;
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage_exit();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (arg == "--reference") {
        opts.reference_path = value;
      } else if (arg == "--revision") {
        opts.revision = value;
      } else {
        usage_exit();
      }
    } catch (const std::logic_error&) {
      usage_exit();
    }
  }
  if (opts.workload.empty() || opts.seconds < 0) usage_exit();
  return opts;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

Json fingerprint(const Options& opts) {
  Json fp = Json::object();
  fp["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  fp["threads"] = static_cast<std::int64_t>(bench_threads());
  fp["cpu_model"] = cpu_model();
  fp["compiler"] = compiler();
  fp["build_type"] = RTBENCH_BUILD_TYPE;
  fp["revision"] = opts.revision.empty() ? "unknown" : opts.revision;
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Report report;
  try {
    if (opts.workload == "sweep_dense") {
      run_sweep_dense(opts, report);
    } else if (opts.workload == "sim_sparse") {
      run_sim_sparse(opts, report);
    } else if (opts.workload == "daemon_churn") {
      run_daemon_churn(opts, report);
    } else if (opts.workload == "gateway_mux") {
      run_gateway_mux(opts, report);
    } else {
      usage_exit();
    }
  } catch (const std::exception& e) {
    std::cerr << "rtbench: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }

  for (const std::string& line : report.notes()) std::cout << line << "\n";

  Json samples = Json::object();
  for (const auto& [name, count] : report.sample_counts()) {
    samples[name] = count;
  }
  Json spreads = Json::object();
  for (const auto& [name, range] : report.spreads()) {
    Json pair = Json::array();
    pair.push_back(range.first);
    pair.push_back(range.second);
    spreads[name] = std::move(pair);
  }
  Json detail = Json::object();
  detail["workload"] = opts.workload;
  detail["seed"] = static_cast<std::int64_t>(opts.seed);
  detail["seconds"] = opts.seconds;
  detail["trace"] = opts.trace;
  detail["fingerprint"] = fingerprint(opts);
  detail["samples"] = std::move(samples);
  detail["min_max"] = std::move(spreads);
  detail["failed_ratio"] =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted())
          : 1.0;
  Json detail_line = Json::object();
  detail_line["detail"] = std::move(detail);
  std::cout << detail_line.dump() << "\n";

  Json metrics = Json::object();
  const auto& specs = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto it = report.metrics().find(spec.name);
    if (it == report.metrics().end() && !opts.trace) {
      std::cerr << "rtbench: " << opts.workload << " did not measure "
                << spec.name << "\n";
      return 1;
    }
    Json m = Json::object();
    m["value"] = it != report.metrics().end() ? it->second : 0.0;
    m["unit"] = spec.unit;
    metrics[spec.name] = std::move(m);
  }
  Json result = Json::object();
  result["correct"] = report.failed() == 0 && report.attempted() > 0;
  result["attempted"] = report.attempted();
  result["failed"] = report.failed();
  result["metrics"] = std::move(metrics);
  std::cout << result.dump() << std::endl;
  return 0;
}

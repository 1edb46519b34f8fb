// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here (CSV)
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;                  // end-to-end (untraced) or per-layer (traced)
  /// Raw samples behind the end-to-end timings (untraced runs), for the
  /// report file: name -> values in the order they were taken.
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> notes;   // failures and violated checks, in order
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Untraced: set-up several times, one timed window,
/// end-to-end metrics. Traced: an untraced pass and a traced pass of half
/// the time each; per-layer metrics, attribution, unit-cost probes and the
/// tracing overhead (traced minus untraced) of every end-to-end metric.
RunResult run_workload(const Options& options);

}  // namespace perfbench

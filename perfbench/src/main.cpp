// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out REPORT.json] [--rev SOURCE-REVISION]
//
// A traced run with --out also writes every span to REPORT-spans.csv.
//
// Prints a provenance line, one line per metric (name, value, unit, sample
// count), any failures, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
// metrics marked ungated are printed but left out of the result line.
// Exits non-zero when an output check fails (a key mismatch, a key handed
// to a revoked member, or cloud objects the admin does not account for).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bigint/mont_backend.h"
#include "util/thread_pool.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::json_escape;
using perfbench::json_number;

struct Args {
  perfbench::Options options;
  std::string out;
  std::string rev = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.options.seconds = std::stod(value);
      if (!(a.options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.options.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--rev") {
      a.rev = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\nworkloads:", e.what());
    for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::ostringstream provenance;
  provenance << "{\"nproc\": " << std::thread::hardware_concurrency()
             << ", \"backend\": \"" << json_escape(ibbe::bigint::backend::name())
             << "\", \"ibbe_threads\": " << ibbe::util::ThreadPool::global().threads()
             << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"rev\": \""
             << json_escape(args.rev) << "\", \"workload\": \""
             << json_escape(args.options.workload) << "\", \"seed\": " << args.options.seed
             << ", \"seconds\": " << json_number(args.options.seconds)
             << ", \"trace\": " << (args.options.trace ? 1 : 0) << "}";
  std::printf("# provenance %s\n", provenance.str().c_str());
  std::fflush(stdout);

  if (args.options.trace && !args.out.empty()) {
    const auto dot = args.out.rfind(".json");
    args.options.spans_path =
        (dot == std::string::npos ? args.out : args.out.substr(0, dot)) + "-spans.csv";
  }
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(args.options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  const double failed_frac =
      result.attempted == 0 ? 0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  for (const auto& [name, m] : result.metrics) {
    const bool thin = name.size() > 4 && name.compare(name.size() - 4, 4, "_p90") == 0 &&
                      m.samples < 100;
    std::printf("%-34s %16s %-9s n=%zu%s%s\n", name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str(), m.samples, thin ? "  (p90 from fewer than 100 samples)" : "",
                m.gated ? "" : "  (not gated)");
  }
  std::printf("%-34s %16s %-9s n=%llu\n", "failed_frac", json_number(failed_frac).c_str(),
              "fraction", static_cast<unsigned long long>(result.attempted));
  for (const auto& note : result.notes) std::printf("! %s\n", note.c_str());

  std::ostringstream metrics;
  std::ostringstream detailed;
  bool first = true;
  bool first_detailed = true;
  for (const auto& [name, m] : result.metrics) {
    if (m.gated) {
      metrics << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
      first = false;
    }
    detailed << (first_detailed ? "" : ", ") << "\"" << json_escape(name)
             << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
             << json_escape(m.unit) << "\", \"samples\": " << m.samples
             << ", \"gated\": " << (m.gated ? "true" : "false") << "}";
    first_detailed = false;
  }
  if (!args.out.empty()) {
    std::ofstream f(args.out);
    f << "{\"provenance\": " << provenance.str() << ", \"correct\": "
      << (result.correct ? "true" : "false") << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"failed_frac\": "
      << json_number(failed_frac) << ", \"notes\": [";
    for (std::size_t i = 0; i < result.notes.size(); ++i) {
      f << (i ? ", " : "") << "\"" << json_escape(result.notes[i]) << "\"";
    }
    f << "], \"metrics\": {" << detailed.str() << "}, \"series\": {";
    bool first_series = true;
    for (const auto& [name, values] : result.series) {
      f << (first_series ? "" : ", ") << "\"" << json_escape(name) << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        f << (i ? ", " : "") << json_number(values[i]);
      }
      f << "]";
      first_series = false;
    }
    f << "}}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.str().c_str());
  return result.correct ? 0 : 1;
}

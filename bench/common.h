// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary accepts:  --scale smoke|default|full
//   smoke   — seconds; sanity check that the harness runs (CI)
//   default — minutes for the whole suite; reproduces every figure's *shape*
//   full    — paper-scale grids where feasible (hours for some figures)
//
// Output: a human-readable markdown table followed by machine-readable CSV
// lines prefixed with "csv,". The perf-trajectory suites (bench_*_suite)
// also accept --json PATH and write their metrics there (report_metrics).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace ibbe::bench {

/// The value following `flag` on the command line; empty when absent.
inline std::string_view flag_value(int argc, char** argv,
                                   std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return {};
}

/// `prefix` followed by the decimal `n` ("u17"). Built by appending: GCC 12
/// reports a false -Wrestrict on `"u" + std::to_string(n)`.
inline std::string numbered(std::string_view prefix, unsigned long long n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Member identities u0 .. u<n-1>.
inline std::vector<std::string> make_users(std::size_t n) {
  std::vector<std::string> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) users.push_back(numbered("u", i));
  return users;
}

enum class Scale { smoke, standard, full };

inline Scale parse_scale(int argc, char** argv) {
  std::string_view v = flag_value(argc, argv, "--scale");
  if (v == "smoke") return Scale::smoke;
  if (v == "full") return Scale::full;
  return Scale::standard;
}

inline const char* scale_name(Scale s) {
  switch (s) {
    case Scale::smoke: return "smoke";
    case Scale::full: return "full";
    default: return "default";
  }
}

/// Accumulates rows and prints them as a markdown table + CSV block.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::printf("\n## %s\n\n", title_.c_str());
    auto print_row = [](const std::vector<std::string>& cells) {
      std::printf("|");
      for (const auto& c : cells) std::printf(" %s |", c.c_str());
      std::printf("\n");
    };
    print_row(columns_);
    std::printf("|");
    for (std::size_t i = 0; i < columns_.size(); ++i) std::printf("---|");
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("csv");
      for (const auto& c : r) std::printf(",%s", c.c_str());
      std::printf("\n");
    }
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_seconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", s);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f min", s / 60.0);
  }
  return buf;
}

inline std::string fmt_bytes(std::size_t b) {
  char buf[64];
  if (b < 1024) {
    std::snprintf(buf, sizeof buf, "%zu B", b);
  } else if (b < 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f MiB",
                  static_cast<double>(b) / (1024.0 * 1024.0));
  }
  return buf;
}

inline std::string fmt_double(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// One named number reported by a perf-trajectory suite.
struct Metric {
  const char* name;
  double value;
};

/// Prints `metrics` as a table titled `title`, and with `--json PATH` on the
/// command line also writes them to PATH as one flat JSON object, two
/// decimals per value (the BENCH_*.json schema in docs/benchmarks.md).
/// Returns false if PATH cannot be opened.
inline bool report_metrics(int argc, char** argv, const std::string& title,
                           const std::vector<Metric>& metrics) {
  Table table(title, {"metric", "value"});
  for (const auto& m : metrics) table.row({m.name, fmt_double(m.value, 2)});
  table.print();

  const std::string json_path(flag_value(argc, argv, "--json"));
  if (json_path.empty()) return true;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.2f%s\n", metrics[i].name, metrics[i].value,
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return true;
}

}  // namespace ibbe::bench

// Metric arithmetic and span attribution for the benchmark's report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deployment.h"
#include "trace.h"

namespace perfbench {

/// Linear-interpolation quantile (q in [0,1]); NaN when `v` is empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Number of consecutive windows a run's tail and rate metrics are taken
/// over; their median is reported, so a burst of host noise inside one or
/// two windows does not move the run's figure.
constexpr int metric_windows = 5;

/// Median over `metric_windows` equal-count runs of `in_time_order` of each
/// run's 90th percentile; the plain 90th percentile below 20 samples per
/// window.
double windowed_p90(const std::vector<double>& in_time_order);

/// Median over `metric_windows` equal slices of [t0, t1) of the events per
/// second completed in each slice (`at`: completion times, any order).
double windowed_rate(const std::vector<std::int64_t>& at, std::int64_t t0,
                     std::int64_t t1);

/// One reported metric: value, unit, and how many samples it summarises.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// Part of the result line's `metrics` (and BENCHMARK.json). Ungated
  /// metrics are printed and written to the report file only.
  bool gated = true;
};
using Metrics = std::map<std::string, Metric>;

/// End-to-end op kinds the attribution report breaks down.
enum class OpKind : std::uint8_t { setup, grant, revoke, fetch, propagate };
constexpr int op_kind_count = 5;
const char* op_kind_name(OpKind kind);

/// One end-to-end op as the workload timed it: its id (the op id its spans
/// carry) and the intervals, on one thread each, that make up its span.
struct OpRecord {
  OpKind kind = OpKind::grant;
  std::uint64_t id = 0;
  std::vector<Segment> segments;
};

/// Layers of the attribution report. Spans of a NetServer's backing store
/// count as `cloud`; an RPC span's time outside them counts as `net`.
enum class AttrLayer : std::uint8_t { system, enclave, cloud, net };
constexpr int attr_layer_count = 4;

struct Attribution {
  struct PerKind {
    std::size_t ops = 0;
    double span_ns = 0;                       // summed over ops
    double layer_ns[attr_layer_count] = {};   // self time per layer
    double unattributed_ns = 0;               // span minus every layer
  };
  PerKind kinds[op_kind_count];

  // Span-derived counts per admin op (grant + revoke) and per fetch.
  std::size_t admin_ops = 0;
  std::size_t fetches = 0;
  double puts = 0, gets = 0, cas = 0, rpcs = 0;
  double rpc_ns = 0, served_ns = 0;          // admin ops' RPCs (wire only)
  double up_bytes[obj_kind_count] = {};      // admin uploads
  double down_bytes[obj_kind_count] = {};    // fetch downloads
  double poll_ns = 0;                        // client-side long_poll spans
  std::size_t polls = 0;
};

/// Splits each op's span into layer self times plus an unattributed rest,
/// and tallies the per-op span counts. Served spans (Layer::served) are
/// paired with the RPC span containing them.
Attribution attribute(const Tracer& tracer, const std::vector<OpRecord>& ops);

/// Adds the attribution's metrics (attr.<kind>.*) to `out`.
void add_attribution_metrics(const Attribution& a, Metrics& out);

/// Writes every recorded span as CSV (one line per span, start order per
/// thread): thread,start_ns,end_ns,op,bytes,parent,layer,verb,kind.
void write_spans(const Tracer& tracer, const std::string& path);

/// JSON string escaping for the report writer.
std::string json_escape(const std::string& s);
/// A number with all its digits (JSON has no NaN: non-finite -> 0).
std::string json_number(double v);

}  // namespace perfbench

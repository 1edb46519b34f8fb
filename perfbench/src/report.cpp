#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double windowed_p90(const std::vector<double>& in_time_order) {
  const std::size_t n = in_time_order.size();
  if (n < static_cast<std::size_t>(metric_windows) * 20) {
    return quantile(in_time_order, 0.9);
  }
  std::vector<double> tails;
  for (int w = 0; w < metric_windows; ++w) {
    const auto lo = in_time_order.begin() +
                    static_cast<std::ptrdiff_t>(n * static_cast<std::size_t>(w) / metric_windows);
    const auto hi = in_time_order.begin() +
                    static_cast<std::ptrdiff_t>(n * static_cast<std::size_t>(w + 1) / metric_windows);
    tails.push_back(quantile(std::vector<double>(lo, hi), 0.9));
  }
  return quantile(std::move(tails), 0.5);
}

double windowed_rate(const std::vector<std::int64_t>& at, std::int64_t t0,
                     std::int64_t t1) {
  if (t1 <= t0) return 0;
  const double slice = static_cast<double>(t1 - t0) / metric_windows;
  std::vector<double> counts(metric_windows, 0.0);
  for (std::int64_t t : at) {
    if (t < t0 || t >= t1) continue;
    const auto w = static_cast<std::size_t>(static_cast<double>(t - t0) / slice);
    counts[std::min<std::size_t>(w, metric_windows - 1)] += 1;
  }
  for (double& c : counts) c /= slice / 1e9;
  return quantile(std::move(counts), 0.5);
}

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::setup: return "setup";
    case OpKind::grant: return "grant";
    case OpKind::revoke: return "revoke";
    case OpKind::fetch: return "fetch";
    case OpKind::propagate: return "propagate";
  }
  return "?";
}

namespace {

AttrLayer attr_layer(Layer layer) {
  switch (layer) {
    case Layer::system_admin:
    case Layer::system_client: return AttrLayer::system;
    case Layer::enclave: return AttrLayer::enclave;
    case Layer::cloud:
    case Layer::served: return AttrLayer::cloud;
    case Layer::net: return AttrLayer::net;
  }
  return AttrLayer::system;
}

const char* attr_layer_name(AttrLayer layer) {
  switch (layer) {
    case AttrLayer::system: return "system";
    case AttrLayer::enclave: return "enclave";
    case AttrLayer::cloud: return "cloud";
    case AttrLayer::net: return "net";
  }
  return "?";
}

bool is_store_verb(Verb v) { return v <= Verb::stored_bytes; }

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::system_admin: return "system.admin";
    case Layer::system_client: return "system.client";
    case Layer::enclave: return "enclave";
    case Layer::cloud: return "cloud";
    case Layer::net: return "net";
    case Layer::served: return "served";
  }
  return "?";
}

const char* verb_name(Verb verb) {
  static const char* const names[] = {
      "put", "put_cas", "get", "get_versioned", "file_version", "erase", "list",
      "dir_version", "long_poll", "stats", "stored_bytes", "create_group",
      "add_user", "remove_user", "fetch", "wait_for_update",
      "verify_credentials", "load_enclave", "extract_user_key"};
  static_assert(std::size(names) == static_cast<std::size_t>(Verb::extract_user_key) + 1);
  return names[static_cast<int>(verb)];
}

double overlap(std::int64_t a0, std::int64_t a1, std::int64_t b0,
               std::int64_t b1) {
  return static_cast<double>(std::max<std::int64_t>(
      0, std::min(a1, b1) - std::max(a0, b0)));
}

/// Per-thread view with a running maximum of span ends, so the spans
/// overlapping a window are found by two binary searches.
struct ThreadIndex {
  const ThreadSpans* spans = nullptr;
  std::vector<std::int64_t> max_end;  // max end_ns over spans[0..i]
  std::vector<const Span*> served;    // per span: paired served span (net)
};

/// Pairs every RPC span with the served span it contains: same verb and
/// byte count, nested in time, first unpaired one in start order. A client
/// thread talks over one connection, which one server session thread
/// serves; once a client thread's first RPC with a single candidate has
/// shown that thread, its RPCs pair only with spans served there, so
/// concurrent identical requests from other sessions are not taken.
void pair_served(const std::vector<std::unique_ptr<ThreadSpans>>& threads,
                 std::vector<ThreadIndex>& index) {
  struct Candidate {
    const Span* span;
    int thread;
    bool used;
  };
  std::map<std::pair<int, std::uint64_t>, std::vector<Candidate>> pool;
  for (const auto& t : threads) {
    for (const auto& s : t->spans) {
      if (s.layer == Layer::served) {
        pool[{static_cast<int>(s.verb), s.bytes}].push_back({&s, t->thread, false});
      }
    }
  }
  for (auto& [key, list] : pool) {
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      return a.span->start_ns < b.span->start_ns;
    });
  }
  // Served spans nested in `rpc`, unused ones on `thread` (-1 = any).
  auto candidates = [&](const Span& rpc, int thread) {
    std::vector<Candidate*> out;
    auto it = pool.find({static_cast<int>(rpc.verb), rpc.bytes});
    if (it == pool.end()) return out;
    auto& list = it->second;
    auto first = std::lower_bound(
        list.begin(), list.end(), rpc.start_ns,
        [](const Candidate& c, std::int64_t t) { return c.span->start_ns < t; });
    for (auto c = first; c != list.end() && c->span->start_ns <= rpc.end_ns; ++c) {
      if (!c->used && c->span->end_ns <= rpc.end_ns &&
          (thread < 0 || c->thread == thread)) {
        out.push_back(&*c);
      }
    }
    return out;
  };
  for (auto& ti : index) {
    const auto& spans = ti.spans->spans;
    int session = -1;  // the server thread this client thread talks to
    for (const Span& rpc : spans) {
      if (rpc.layer != Layer::net) continue;
      const auto found = candidates(rpc, -1);
      if (found.size() == 1) {
        session = found.front()->thread;
        break;
      }
    }
    ti.served.assign(spans.size(), nullptr);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].layer != Layer::net) continue;
      const auto found = candidates(spans[i], session);
      if (!found.empty()) {
        found.front()->used = true;
        ti.served[i] = found.front()->span;
      }
    }
  }
}

}  // namespace

Attribution attribute(const Tracer& tracer, const std::vector<OpRecord>& ops) {
  Attribution a;
  const auto& threads = tracer.threads();
  std::vector<ThreadIndex> index(threads.size());
  for (std::size_t t = 0; t < threads.size(); ++t) {
    index[t].spans = threads[t].get();
    std::int64_t running = 0;
    for (const auto& s : threads[t]->spans) {
      running = std::max(running, s.end_ns);
      index[t].max_end.push_back(running);
    }
  }
  pair_served(threads, index);

  std::map<std::uint64_t, OpKind> kind_of;
  for (const auto& op : ops) {
    kind_of[op.id] = op.kind;
    auto& k = a.kinds[static_cast<int>(op.kind)];
    ++k.ops;
    if (op.kind == OpKind::grant || op.kind == OpKind::revoke) ++a.admin_ops;
    if (op.kind == OpKind::fetch) ++a.fetches;
    for (const Segment& seg : op.segments) {
      const double len = static_cast<double>(seg.t1 - seg.t0);
      k.span_ns += len;
      if (seg.thread < 0 || static_cast<std::size_t>(seg.thread) >= index.size()) {
        k.unattributed_ns += len;
        continue;
      }
      const ThreadIndex& ti = index[static_cast<std::size_t>(seg.thread)];
      const auto& spans = ti.spans->spans;
      // First span that ends after t0, up to the first that starts after t1.
      const auto lo = static_cast<std::size_t>(
          std::upper_bound(ti.max_end.begin(), ti.max_end.end(), seg.t0) -
          ti.max_end.begin());
      const auto hi = static_cast<std::size_t>(
          std::lower_bound(spans.begin(), spans.end(), seg.t1,
                           [](const Span& s, std::int64_t t) {
                             return s.start_ns < t;
                           }) -
          spans.begin());
      double covered = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const Span& s = spans[i];
        const double clip = overlap(s.start_ns, s.end_ns, seg.t0, seg.t1);
        if (clip <= 0) continue;
        k.layer_ns[static_cast<int>(attr_layer(s.layer))] += clip;
        if (s.parent >= 0) {
          const Span& p = spans[static_cast<std::size_t>(s.parent)];
          k.layer_ns[static_cast<int>(attr_layer(p.layer))] -= clip;
        } else {
          covered += clip;
        }
        if (const Span* served = ti.served[i]) {
          const double inner =
              overlap(served->start_ns, served->end_ns, seg.t0, seg.t1);
          k.layer_ns[static_cast<int>(AttrLayer::net)] -= inner;
          k.layer_ns[static_cast<int>(AttrLayer::cloud)] += inner;
        }
      }
      k.unattributed_ns += len - covered;
    }
  }

  // Span-derived counts, by the op id each span carries.
  for (const auto& ti : index) {
    const auto& spans = ti.spans->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.layer != Layer::cloud && s.layer != Layer::net) continue;
      if (s.verb == Verb::long_poll) {
        a.poll_ns += static_cast<double>(s.end_ns - s.start_ns);
        ++a.polls;
      }
      auto it = kind_of.find(s.op);
      if (it == kind_of.end()) continue;
      const bool admin = it->second == OpKind::grant || it->second == OpKind::revoke;
      const int kind = static_cast<int>(s.kind);
      if (admin && is_store_verb(s.verb)) {
        if (s.verb == Verb::put) ++a.puts;
        if (s.verb == Verb::put_cas) ++a.cas;
        if (s.verb == Verb::get || s.verb == Verb::get_versioned) ++a.gets;
        if (s.verb == Verb::put || s.verb == Verb::put_cas) {
          a.up_bytes[kind] += static_cast<double>(s.bytes);
        }
        if (s.layer == Layer::net) {
          ++a.rpcs;
          a.rpc_ns += static_cast<double>(s.end_ns - s.start_ns);
          if (const Span* served = ti.served[i]) {
            a.served_ns += static_cast<double>(served->end_ns - served->start_ns);
          }
        }
      }
      if (it->second == OpKind::fetch &&
          (s.verb == Verb::get || s.verb == Verb::get_versioned)) {
        a.down_bytes[kind] += static_cast<double>(s.bytes);
      }
    }
  }
  return a;
}

void add_attribution_metrics(const Attribution& a, Metrics& out) {
  for (int k = 0; k < op_kind_count; ++k) {
    const auto& pk = a.kinds[k];
    const std::string base =
        std::string("attr.") + op_kind_name(static_cast<OpKind>(k)) + ".";
    const double n = pk.ops == 0 ? 1.0 : static_cast<double>(pk.ops);
    out[base + "span_ms"] = {pk.span_ns / n / 1e6, "ms", pk.ops};
    for (int l = 0; l < attr_layer_count; ++l) {
      out[base + attr_layer_name(static_cast<AttrLayer>(l)) + "_ms"] = {
          pk.layer_ns[l] / n / 1e6, "ms", pk.ops};
    }
    out[base + "unattributed_ms"] = {pk.unattributed_ns / n / 1e6, "ms", pk.ops};
    out[base + "unattributed_frac"] = {
        pk.span_ns > 0 ? pk.unattributed_ns / pk.span_ns : 0.0, "fraction",
        pk.ops};
  }
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,start_ns,end_ns,op,bytes,parent,layer,verb,kind\n");
  for (const auto& t : tracer.threads()) {
    for (const auto& s : t->spans) {
      std::fprintf(f, "%d,%lld,%lld,%llu,%llu,%d,%s,%s,%s\n", t->thread,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.bytes), s.parent,
                   layer_name(s.layer), verb_name(s.verb), obj_kind_name(s.kind));
    }
  }
  std::fclose(f);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace perfbench

#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "crypto/drbg.h"

namespace ibbe::trace {

std::vector<core::Identity> MembershipTrace::final_members() const {
  std::set<core::Identity> live(initial_members.begin(), initial_members.end());
  for (const auto& op : ops) {
    if (op.kind == OpKind::add) {
      live.insert(op.user);
    } else {
      live.erase(op.user);
    }
  }
  return {live.begin(), live.end()};
}

std::size_t MembershipTrace::peak_size() const {
  std::set<core::Identity> live(initial_members.begin(), initial_members.end());
  std::size_t peak = live.size();
  for (const auto& op : ops) {
    if (op.kind == OpKind::add) {
      live.insert(op.user);
    } else {
      live.erase(op.user);
    }
    peak = std::max(peak, live.size());
  }
  return peak;
}

std::size_t MembershipTrace::add_count() const {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.kind == OpKind::add;
  return n;
}

std::size_t MembershipTrace::remove_count() const {
  return ops.size() - add_count();
}

MembershipTrace linux_kernel_trace(std::size_t total_ops, std::size_t peak_size,
                                   std::uint64_t seed) {
  if (total_ops < 2 || peak_size < 2) {
    throw std::invalid_argument("linux_kernel_trace: trace too small");
  }
  crypto::Drbg rng(seed);
  MembershipTrace trace;
  trace.label = "linux-kernel-acl";
  trace.ops.reserve(total_ops);

  std::vector<core::Identity> live;  // join order retained
  std::uint64_t next_uid = 0;
  auto fresh_user = [&] { return "dev" + std::to_string(next_uid++); };

  // Target live-set size as a function of progress: a ramp to the peak over
  // the first 60% of the trace (the kernel's contributor base mostly grew
  // over the decade), then a plateau with churn.
  auto target = [&](double progress) -> std::size_t {
    double ramp = std::min(1.0, progress / 0.6);
    // smoothstep for a gentle start, floor of 1.
    double s = ramp * ramp * (3 - 2 * ramp);
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        s * static_cast<double>(peak_size)));
  };

  for (std::size_t i = 0; i < total_ops; ++i) {
    double progress =
        static_cast<double>(i) / static_cast<double>(total_ops);
    std::size_t want = target(progress);
    bool do_add;
    if (live.empty()) {
      do_add = true;
    } else if (live.size() >= peak_size) {
      do_add = false;  // hard cap: the paper's trace never exceeds its peak
    } else if (live.size() < want) {
      // Growing phase still sees departures: 25% of ops are leavers.
      do_add = rng.uniform(100) >= 25;
    } else {
      // Plateau: balanced churn.
      do_add = rng.uniform(100) >= 50;
    }
    if (do_add) {
      auto user = fresh_user();
      live.push_back(user);
      trace.ops.push_back({OpKind::add, std::move(user)});
    } else {
      // Heavy-tailed lifetimes: drive-by contributors (recent joiners) leave
      // far more often than the long-lived core. Pick from the most recent
      // quarter of joiners 75% of the time.
      std::size_t idx;
      if (live.size() >= 4 && rng.uniform(100) < 75) {
        std::size_t quarter = live.size() / 4;
        idx = live.size() - 1 - rng.uniform(quarter);
      } else {
        idx = rng.uniform(live.size());
      }
      trace.ops.push_back({OpKind::remove, live[idx]});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  return trace;
}

MembershipTrace revocation_trace(std::size_t total_ops, double revocation_rate,
                                 std::uint64_t seed, std::size_t initial_size) {
  if (revocation_rate < 0.0 || revocation_rate > 1.0) {
    throw std::invalid_argument("revocation_trace: rate must be in [0,1]");
  }
  crypto::Drbg rng(seed);
  MembershipTrace trace;
  trace.label =
      "synthetic-revocation-" + std::to_string(static_cast<int>(revocation_rate * 100));
  trace.ops.reserve(total_ops);

  std::vector<core::Identity> live;
  for (std::size_t i = 0; i < initial_size; ++i) {
    live.push_back("init" + std::to_string(i));
  }
  trace.initial_members = live;
  std::uint64_t next_uid = 0;
  auto threshold = static_cast<std::uint64_t>(revocation_rate * 1000000.0);

  for (std::size_t i = 0; i < total_ops; ++i) {
    bool do_remove = !live.empty() && rng.uniform(1000000) < threshold;
    if (do_remove) {
      std::size_t idx = rng.uniform(live.size());
      trace.ops.push_back({OpKind::remove, live[idx]});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      std::string user = "u";
      user += std::to_string(next_uid++);
      live.push_back(user);
      trace.ops.push_back({OpKind::add, std::move(user)});
    }
  }
  return trace;
}

}  // namespace ibbe::trace

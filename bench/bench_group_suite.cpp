// Million-user group-state trajectory: what the sharded manifest + delta
// layout buys over the seed's monolithic member matrix, and what the new
// fold primitive costs.
//
//   mutation_ops_s       — end-to-end membership mutations per second
//                          (remove+add churn pairs through the real enclave,
//                          cloud store and commit protocol at |p|=4);
//   index_bytes_per_op   — mean MEMBER-INDEX bytes uploaded per membership
//                          mutation at one million members under the sharded
//                          layout (host shard rewrite + hash-chained delta +
//                          manifest), measured with the real serializers;
//   index_bytes_per_op_monolithic — the same churn under the seed's layout:
//                          every mutation re-uploads the whole member matrix
//                          as one object;
//   index_churn_ratio    — monolithic / sharded. HARD GATE at the million
//                          scale: the bench exits non-zero below 100x, which
//                          is the acceptance bar for the layout change;
//   delta_fold_us        — mean CachedIndex::apply of a single-op delta into
//                          a warm million-member view (the client's warm
//                          path per commit);
//   replay_ops_s         — metadata-layer replay of the Linux-kernel trace
//                          with contributors scaled by --contributors-x
//                          (shape from trace.h; x=100 reproduces the
//                          tentpole's 100x-contributors scenario);
//   peak_rss_mb          — VmHWM after everything above. --rss-ceiling-mb N
//                          turns it into a gate: exceeding N fails the run,
//                          so the million-member scenario cannot silently
//                          regress into matrix-sized allocations.
//
// Cipher bytes are deliberately excluded from the index churn metrics: the
// cipher bundle/overlay split is covered by bench_fig7's footprint numbers,
// and the seed-vs-sharded comparison here isolates the member-matrix cost
// the tentpole replaced.
//
// Usage: bench_group_suite [--json PATH] [--scale smoke|default|full]
//                          [--contributors-x N] [--rss-ceiling-mb N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "system/admin.h"
#include "system/advisor.h"
#include "system/client.h"
#include "system/metadata.h"
#include "trace/trace.h"
#include "util/stopwatch.h"

namespace {

using ibbe::core::Identity;
using ibbe::system::CachedIndex;
using ibbe::system::DeltaOp;
using ibbe::system::GroupManifest;
using ibbe::system::IndexDelta;
using ibbe::system::IndexShard;
using ibbe::system::PartitionId;
using ibbe::system::SignedEnvelope;

using ibbe::bench::make_users;

/// Peak resident set (VmHWM) of this process, in MiB; 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// End-to-end churn throughput: remove+add pairs through the real enclave,
/// store and commit protocol (small group — this measures protocol + crypto,
/// not the index layout; the layout is what the metadata metrics below
/// isolate).
double mutation_ops_s(int iters) {
  ibbe::sgx::EnclavePlatform platform("bench-group");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(7);
  ibbe::system::AdminConfig config;
  config.partition_size = 4;
  ibbe::system::AdminApi admin(enclave, cloud,
                               ibbe::pki::EcdsaKeyPair::generate(rng), config,
                               /*seed=*/3);
  admin.create_group("g", make_users(24));
  admin.remove_user("g", "u0");  // warm-up pair
  admin.add_user("g", "u0");
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    admin.remove_user("g", "u0");
    admin.add_user("g", "u0");
  }
  return (2.0 * iters) / sw.seconds();
}

// ---------------------------------------------------------------------------
// Metadata-layer group model
// ---------------------------------------------------------------------------
// Mirrors exactly which INDEX objects AdminApi re-serializes per mutation
// (host shard + delta + manifest under the sharded layout; the whole member
// matrix under the seed's), using the real wire formats, without paying for
// IBBE partition crypto — which is what makes a million-member group and a
// 100x-contributors replay measurable at all.

class MetaGroup {
 public:
  MetaGroup(std::size_t partition_size, std::size_t shard_partitions)
      : m_(partition_size), k_(shard_partitions) {}

  void bootstrap(const std::vector<Identity>& members) {
    for (const auto& id : members) place(id);
    for (auto& s : shards_) refresh_ref(s);
  }

  /// Adds one member; returns the bytes the sharded layout uploads for the
  /// index (envelope-framed shard and manifest, bare delta).
  std::size_t add(const Identity& id) {
    std::size_t shard = place(id);
    return commit(shard, DeltaOp::Kind::add_member, id);
  }

  /// Removes one member; same accounting.
  std::size_t remove(const Identity& id) {
    auto it = locate_.find(id);
    if (it == locate_.end()) return 0;
    auto [shard, pid] = it->second;
    auto& partitions = shards_[shard].shard.partitions;
    for (auto p = partitions.begin(); p != partitions.end(); ++p) {
      if (p->first != pid) continue;
      p->second.erase(std::find(p->second.begin(), p->second.end(), id));
      if (p->second.empty()) partitions.erase(p);
      break;
    }
    locate_.erase(it);
    if (open_ && open_->first == shard) open_.reset();  // may have changed
    return commit(shard, DeltaOp::Kind::remove_member, id);
  }

  /// One object holding every partition's member list — the seed's
  /// GroupIndex member matrix, re-uploaded wholesale per mutation.
  std::size_t monolithic_bytes() const {
    IndexShard matrix;
    for (const auto& s : shards_) {
      for (const auto& p : s.shard.partitions) matrix.partitions.push_back(p);
    }
    return matrix.to_bytes().size() + SignedEnvelope::stored_overhead;
  }

  std::size_t member_count() const { return locate_.size(); }
  std::size_t partition_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.shard.partitions.size();
    return n;
  }
  std::size_t shard_count() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.shard.partitions.empty() ? 0 : 1;
    return n;
  }

 private:
  struct ShardState {
    IndexShard shard;
    ibbe::system::ShardRef ref;
    std::size_t bytes = 0;  // last serialized size, envelope-framed
  };

  /// Puts `id` into the open partition (or a fresh partition in the last
  /// shard with room, or a fresh shard); returns the shard index.
  std::size_t place(const Identity& id) {
    if (!open_ || member_count_of(open_->first, open_->second) >= m_) {
      open_.reset();
      // A fresh partition: last shard if it has room, else a new shard
      // (an emptied-out tail shard is reused, as the real admin's
      // assign_to_shard does after the GC drops it).
      if (shards_.empty() || shards_.back().shard.partitions.size() >= k_) {
        shards_.push_back({});
        shards_.back().shard.sid = next_object_++;
        shards_.back().ref.sid = shards_.back().shard.sid;
      }
      auto& shard = shards_.back().shard;
      shard.partitions.emplace_back(next_pid_++,
                                    std::vector<Identity>{});
      open_ = {shards_.size() - 1, shard.partitions.back().first};
    }
    auto& partitions = shards_[open_->first].shard.partitions;
    for (auto& p : partitions) {
      if (p.first == open_->second) {
        p.second.push_back(id);
        break;
      }
    }
    locate_[id] = *open_;
    return open_->first;
  }

  std::size_t member_count_of(std::size_t shard, PartitionId pid) const {
    for (const auto& p : shards_[shard].shard.partitions) {
      if (p.first == pid) return p.second.size();
    }
    return m_;  // gone -> treat as full so place() opens a fresh one
  }

  void refresh_ref(ShardState& s) {
    auto bytes = s.shard.to_bytes();
    s.ref.hash = ibbe::system::content_hash(bytes);
    s.bytes = bytes.size() + SignedEnvelope::stored_overhead;
  }

  /// Serializes what the admin uploads for this mutation and returns the
  /// byte total: the rewritten host shard, the single-op delta chained to
  /// its predecessor, and the manifest pinning every shard ref and the
  /// delta.
  std::size_t commit(std::size_t shard, DeltaOp::Kind kind,
                     const Identity& id) {
    refresh_ref(shards_[shard]);
    IndexDelta delta;
    delta.seq = ++counter_;
    delta.prev_delta_hash = delta_hash_;
    DeltaOp op;
    op.kind = kind;
    op.user = id;
    delta.ops = {op};
    auto delta_bytes = delta.to_bytes();
    delta_hash_ = ibbe::system::content_hash(delta_bytes);
    GroupManifest manifest;
    manifest.shards.reserve(shards_.size());
    // Emptied shards leave the manifest (the admin erases them); slots stay
    // in shards_ so locate_'s indices remain stable.
    for (const auto& s : shards_) {
      if (!s.shard.partitions.empty()) manifest.shards.push_back(s.ref);
    }
    manifest.delta_base = counter_ > 64 ? counter_ - 63 : 1;
    manifest.delta_hash = delta_hash_;
    return shards_[shard].bytes + delta_bytes.size() +
           manifest.to_bytes().size() + SignedEnvelope::stored_overhead;
  }

  std::size_t m_;
  std::size_t k_;
  std::vector<ShardState> shards_;
  std::unordered_map<Identity, std::pair<std::size_t, PartitionId>> locate_;
  std::optional<std::pair<std::size_t, PartitionId>> open_;
  PartitionId next_pid_ = 0;
  std::uint64_t next_object_ = 0;
  std::uint64_t counter_ = 0;
  ibbe::system::Hash32 delta_hash_{};
};

struct ChurnResult {
  double sharded_bytes_per_op = 0;
  double monolithic_bytes_per_op = 0;
  double fold_us = 0;
};

/// Builds the million-member group, churns it, and measures both layouts +
/// the client-side fold cost of each commit's delta.
ChurnResult million_member_churn(std::size_t members, int churn_ops) {
  const std::size_t m = 1000;  // the paper's large-deployment |p|
  const std::size_t partitions = (members + m - 1) / m;
  const std::size_t k =
      ibbe::system::PartitionAdvisor::recommend_shard_partitions(partitions, m);
  MetaGroup group(m, k);
  group.bootstrap(make_users(members));
  std::printf("  group: %zu members, %zu partitions, %zu shards (k=%zu)\n",
              group.member_count(), group.partition_count(),
              group.shard_count(), k);

  // A warm client's view of the same group, for the fold timing.
  CachedIndex view;
  {
    std::size_t uid = 0;
    for (std::size_t p = 0; p < partitions; ++p) {
      std::vector<Identity> list;
      list.reserve(m);
      for (std::size_t i = 0; i < m && uid < members; ++i) {
        list.push_back(ibbe::bench::numbered("u", uid++));
      }
      view.add_partition(p, std::move(list));
    }
    (void)view.find_user("u0");  // build the lookup map outside the timing
  }

  ChurnResult r;
  r.monolithic_bytes_per_op = static_cast<double>(group.monolithic_bytes());
  std::size_t total = 0;
  double fold_total_us = 0;
  for (int i = 0; i < churn_ops; ++i) {
    const Identity joiner = "joiner" + std::to_string(i);
    total += group.add(joiner);
    total += group.remove(joiner);
    // Fold both commits into the warm view (what every online client does).
    for (auto kind : {DeltaOp::Kind::add_member, DeltaOp::Kind::remove_member}) {
      IndexDelta d;
      d.seq = view.counter + 1;
      d.prev_log_head = view.log_head;
      DeltaOp op;
      op.kind = kind;
      op.user = joiner;
      op.pid = partitions + 7;  // the churn partition
      d.ops = {op};
      ibbe::util::Stopwatch sw;
      if (!view.apply(d)) std::fprintf(stderr, "fold failed\n");
      fold_total_us += sw.micros();
    }
  }
  r.sharded_bytes_per_op = static_cast<double>(total) / (2.0 * churn_ops);
  r.fold_us = fold_total_us / (2.0 * churn_ops);
  return r;
}

/// Metadata-layer replay of the Linux-kernel trace with the contributor
/// population scaled by `x` (ops scale with it so the peak is reached).
double replay_ops_s(std::size_t x) {
  auto trace = ibbe::trace::linux_kernel_trace(43468 * x, 2803 * x,
                                               /*seed=*/2018);
  const std::size_t m = 1000;
  const std::size_t peak_partitions = (trace.peak_size() + m - 1) / m;
  const std::size_t k = ibbe::system::PartitionAdvisor::recommend_shard_partitions(
      std::max<std::size_t>(peak_partitions, 1), m);
  MetaGroup group(m, k);
  group.bootstrap(trace.initial_members);
  ibbe::util::Stopwatch sw;
  for (const auto& op : trace.ops) {
    if (op.kind == ibbe::trace::OpKind::add) {
      (void)group.add(op.user);
    } else {
      (void)group.remove(op.user);
    }
  }
  double secs = sw.seconds();
  std::printf("  replay: %zu ops, peak %zu contributors, %zu shards -> %s\n",
              trace.ops.size(), trace.peak_size(), group.shard_count(),
              ibbe::bench::fmt_seconds(secs).c_str());
  return static_cast<double>(trace.ops.size()) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const ibbe::bench::Scale scale = ibbe::bench::parse_scale(argc, argv);
  auto long_flag = [&](std::string_view flag) {
    return std::atol(
        std::string(ibbe::bench::flag_value(argc, argv, flag)).c_str());
  };
  long contributors_x = long_flag("--contributors-x");  // 0 = pick per scale
  const long rss_ceiling_mb = long_flag("--rss-ceiling-mb");  // 0 = report only
  // The million-member scenario runs at EVERY scale — it is the point of the
  // suite; scale only varies iteration counts and the replay multiplier.
  const int iters = scale == ibbe::bench::Scale::smoke  ? 5
                    : scale == ibbe::bench::Scale::full ? 100
                                                        : 25;
  const int churn_ops = scale == ibbe::bench::Scale::smoke ? 50 : 500;
  if (contributors_x <= 0) {
    contributors_x = scale == ibbe::bench::Scale::smoke  ? 1
                     : scale == ibbe::bench::Scale::full ? 100
                                                         : 2;
  }

  std::printf("# group suite [scale=%s, contributors-x=%ld]\n",
              ibbe::bench::scale_name(scale), contributors_x);

  std::vector<ibbe::bench::Metric> metrics;
  metrics.push_back({"mutation_ops_s", mutation_ops_s(iters)});

  auto churn = million_member_churn(1'000'000, churn_ops);
  metrics.push_back({"index_bytes_per_op", churn.sharded_bytes_per_op});
  metrics.push_back(
      {"index_bytes_per_op_monolithic", churn.monolithic_bytes_per_op});
  const double ratio =
      churn.monolithic_bytes_per_op / churn.sharded_bytes_per_op;
  metrics.push_back({"index_churn_ratio", ratio});
  metrics.push_back({"delta_fold_us", churn.fold_us});
  metrics.push_back(
      {"replay_ops_s",
       replay_ops_s(static_cast<std::size_t>(contributors_x))});
  const double rss = peak_rss_mb();
  metrics.push_back({"peak_rss_mb", rss});

  if (!ibbe::bench::report_metrics(
          argc, argv,
          "group suite (" + std::string(ibbe::bench::scale_name(scale)) + ")",
          metrics)) {
    return 1;
  }

  // Acceptance gates: the sharded layout must beat the matrix by >=100x per
  // op at a million members, and the whole scenario must fit the ceiling.
  if (ratio < 100.0) {
    std::fprintf(stderr,
                 "FAIL: index_churn_ratio %.1f < 100 — a membership op "
                 "uploads too much index\n",
                 ratio);
    return 1;
  }
  if (rss_ceiling_mb > 0 && rss > static_cast<double>(rss_ceiling_mb)) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MiB exceeds ceiling %ld MiB\n",
                 rss, rss_ceiling_mb);
    return 1;
  }
  return 0;
}

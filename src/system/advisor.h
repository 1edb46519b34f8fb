// Dynamic partition sizing (the paper's first future-work item: "dynamically
// adapt the partition sizes based on the undergoing workload").
//
// Cost model. Over an observation window with R revocations and D user
// decryptions on a group of N members split into partitions of size m:
//
//   administrator cost ~= R * (N/m) * c_rekey      (one re-wrap per partition)
//   user cost          ~= D * m * c_decrypt        (decrypt is ~linear in m
//                                                   until the quadratic Zr
//                                                   term dominates)
//
// Minimizing the sum over m gives  m* = sqrt(R*N*c_rekey / (D*c_decrypt)).
// Removal-heavy workloads push towards large partitions (fewer to re-wrap);
// read-heavy ones towards small partitions (cheap decrypts) — exactly the
// trade-off of the paper's Fig. 9 discussion.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ibbe::system {

class PartitionAdvisor {
 public:
  struct CostModel {
    /// Seconds a revocation spends per partition: it costs one host re-key
    /// plus (N/m - 1) re-wraps of gk, so this is the re-wrap,
    /// bench_scalar_suite's `remove_users_1k_ms` / 1000: 13.1 ms at
    /// IBBE_THREADS=1 on a shared 4-vCPU x86-64 host (3.6 ms at four).
    double rekey_seconds = 1.3e-5;
    /// Client decrypt seconds per partition member (G2 exponentiation
    /// dominated at practical sizes).
    double decrypt_seconds_per_member = 1.1e-3;
  };

  PartitionAdvisor() = default;
  explicit PartitionAdvisor(const CostModel& model) : model_(model) {}

  void record_add() { ++adds_; }
  void record_remove() { ++removes_; }
  void record_decrypt() { ++decrypts_; }

  [[nodiscard]] std::uint64_t removes() const { return removes_; }
  [[nodiscard]] std::uint64_t decrypts() const { return decrypts_; }

  /// Recommended partition size for a group of `group_size` members, clamped
  /// to [min_size, max_size]. With no observed removals the advisor returns
  /// min_size (nothing to amortize); with no observed decrypts, max_size.
  [[nodiscard]] std::size_t recommend(std::size_t group_size,
                                      std::size_t min_size,
                                      std::size_t max_size) const;

  /// Forget the observation window (e.g. after acting on a recommendation).
  void reset_window() { adds_ = removes_ = decrypts_ = 0; }

  /// Shard sizing for the manifest layout (docs/fault_model.md). A mutation
  /// re-uploads the manifest (one 48-byte ShardRef per shard) plus the host
  /// shard (k partitions of ~m members at ~`member_bytes` each), so churn per
  /// op is ~ P/k * ref_bytes + k * m * member_bytes; minimizing over k gives
  /// k* = sqrt(P * ref_bytes / (m * member_bytes)), clamped to [1, P].
  /// Static: unlike partition sizing this is a pure serialization trade-off,
  /// independent of the observed workload mix.
  [[nodiscard]] static std::size_t recommend_shard_partitions(
      std::size_t partition_count, std::size_t partition_size);

 private:
  CostModel model_{};
  std::uint64_t adds_ = 0;
  std::uint64_t removes_ = 0;
  std::uint64_t decrypts_ = 0;
};

}  // namespace ibbe::system

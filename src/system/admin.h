// Administrator API (paper §V, Algorithms 1-3 at system level).
//
// The administrator is honest-but-curious: this class runs *outside* the
// enclave and only ever handles public metadata, sealed blobs, and wrapped
// keys. All gk/bk-touching work happens in the IbbeEnclave it drives.
//
// Responsibilities:
//   * partition assignment (fixed-size partitions, random placement of
//     joiners, as in Algorithm 2 line 9) and shard assignment (a few whole
//     partitions per shard, sized by the advisor's churn model);
//   * the local metadata cache that saves cloud round trips (§IV-C): a
//     CachedIndex — the same view clients fold — plus each partition's
//     ciphertext. After a snapshot fills it, every mutation changes it only
//     by applying the DeltaOps its commit publishes;
//   * pushing signed metadata to the cloud store — under the sharded
//     manifest layout a mutation touches O(1) objects: the host shard, one
//     cipher object (an overlay for adds, the rotated bundle for removes),
//     the hash-chained delta, the op-log entry and the manifest;
//   * re-partitioning heuristics at two granularities: the global rule from
//     §V-A (more than half of ALL partitions under two-thirds occupancy →
//     full rebuild, a snapshot barrier) and the same rule applied per shard
//     (rebuild just that shard's partitions, wrapping the current gk —
//     foldable by clients as a repartition delta op).
//
// Crash consistency (docs/fault_model.md has the full protocol): every
// mutation is shadow-paged. Changed shards, cipher bundles/overlays and the
// commit's delta are written under FRESH object ids (copy-on-write —
// these files are immutable once written; partition ids, by contrast, are
// stable logical names), a rotated group key is sealed under a FRESH epoch
// path, and the op-log entry is CAS-merged in — all BEFORE the single commit
// point, the CAS that replaces groups/<gid>/index (the manifest). Nothing is
// erased before the commit; unreferenced files — including deltas that fell
// out of the retention window — are swept by a post-commit garbage
// collector, and recover() rolls a torn mutation back (manifest CAS never
// landed) or forward (it did; finish the GC) after a crash. Transient cloud
// errors are retried under config.retry; a cloud::CrashError is never
// retried in place. A mutation that throws leaves no uncommitted change in
// the cache: it re-syncs the group before the rethrow, or flags it so the
// next mutation re-syncs first.
//
// Extensions beyond the paper's evaluation (its §VIII future work):
//   * batch revocation: remove_users() rotates gk once per batch; a single
//     remove_user() is a batch of one (the paper's Algorithm 3);
//   * multi-administrator mode: manifest updates are always CAS-protected
//     and a conflict re-syncs the cache and retries (no knob: peers need
//     only distinct admin_nonce values and each other's keys);
//   * dynamic partition sizing: re-partitioning picks the size a cost model
//     recommends for the observed workload (config.adaptive_partitioning);
//   * a hash-chained signed membership log for auditing
//     (config.log_operations, see oplog.h), anchored against truncation by
//     the committed manifest's log_head field — which also chains the
//     incremental deltas clients fold.
#pragma once

#include <map>

#include "cloud/store.h"
#include "crypto/drbg.h"
#include "enclave/ibbe_enclave.h"
#include "system/advisor.h"
#include "system/metadata.h"
#include "system/oplog.h"
#include "util/retry.h"

namespace ibbe::system {

struct AdminConfig {
  std::size_t partition_size = 1000;  // the paper's |p|

  /// Partitions per shard; 0 = let the advisor's churn model pick
  /// (PartitionAdvisor::recommend_shard_partitions) at each (re)creation.
  std::size_t shard_partitions = 0;

  /// How many incremental deltas stay on the cloud for warm clients to fold;
  /// older ones are garbage-collected and force a snapshot re-fetch.
  std::size_t delta_window = 64;

  /// Backoff discipline for transient cloud errors (every put/get/list this
  /// class issues). cloud::CrashError is never retried.
  util::RetryPolicy retry{};

  // ---- multi-administrator extension ----
  /// Distinguishes this administrator's partition/object ids and gk epochs
  /// (high 32 bits) so concurrent creations never collide.
  std::uint32_t admin_nonce = 0;
  /// Verification keys (compressed P-256) of the other administrators whose
  /// signed metadata this admin accepts during re-sync.
  std::vector<util::Bytes> peer_verification_keys{};

  // ---- dynamic partition sizing extension ----
  /// When re-partitioning triggers, rebuild with the PartitionAdvisor's
  /// recommendation instead of the static partition_size.
  bool adaptive_partitioning = false;
  std::size_t min_partition_size = 16;

  // ---- audit log extension ----
  /// Appends every membership change to a hash-chained signed log mirrored
  /// to the cloud (oplog.h).
  bool log_operations = false;
  std::string admin_name = "admin";
};

struct AdminStats {
  std::uint64_t groups_created = 0;
  std::uint64_t users_added = 0;
  std::uint64_t users_removed = 0;
  std::uint64_t partitions_created = 0;
  std::uint64_t repartitions = 0;        // full (global) rebuilds
  std::uint64_t shard_repartitions = 0;  // shard-local rebuilds (delta-foldable)
  std::uint64_t deltas_published = 0;    // incremental deltas committed
  std::uint64_t cas_conflicts = 0;      // retries caused by peers (or faults)
  std::uint64_t transient_retries = 0;  // cloud round trips retried
  std::uint64_t recoveries = 0;         // recover() invocations
  std::uint64_t rollback_rejections = 0;  // synced views below the enclave floor
};

class AdminApi {
 public:
  AdminApi(enclave::IbbeEnclave& enclave, cloud::CloudStore& cloud,
           pki::EcdsaKeyPair signing_key, AdminConfig config,
           std::uint64_t seed = 0);

  /// Algorithm 1: split into fixed-size partitions, one enclave call, push.
  void create_group(const GroupId& gid, std::span<const core::Identity> members);

  /// Algorithm 2. No-op if the user is already a member.
  void add_user(const GroupId& gid, const core::Identity& id);

  /// Algorithm 3 (+ re-partitioning heuristics): `remove_users` with one
  /// id, logged under that id. No-op if not a member.
  void remove_user(const GroupId& gid, const core::Identity& id);

  /// Batch extensions: `add_users` loops the O(1) add; `remove_users`
  /// rotates the group key ONCE for all k revocations (one enclave call, one
  /// re-key per partition) instead of k times, logged as "batch=k".
  /// Non-members are skipped.
  void add_users(const GroupId& gid, std::span<const core::Identity> ids);
  void remove_users(const GroupId& gid, std::span<const core::Identity> ids);

  /// Rebuilds the local cache for `gid` from signed cloud metadata (the
  /// manifest, every shard — verified against the manifest's hashes — the
  /// cipher bundle + overlays, and the sealed gk of the committed epoch),
  /// each authenticated by MetadataReader. Throws cloud::TransientError when
  /// the cloud serves a torn, stale or rolled-back view (caller may retry)
  /// and util::IntegrityError on forged or malformed metadata. Caches
  /// nothing unless every object checks out.
  void sync_from_cloud(const GroupId& gid);

  /// Startup crash recovery. Returns true if the group exists (its manifest
  /// committed): the cache is rebuilt from the committed state, id/epoch
  /// counters are advanced past every id seen on the cloud (so a restarted
  /// admin can never collide with leftovers), and orphaned shard / cipher /
  /// delta / gk files are garbage-collected — rolling an interrupted
  /// mutation back, or finishing the sweep of one that committed
  /// (roll-forward). Returns false if no manifest exists: a creation died
  /// before its commit point; every torn file under the group's directory is
  /// deleted.
  bool recover(const GroupId& gid);

  /// Fetches the group's op-log from the cloud and audits it against this
  /// admin's + peers' keys, anchored on the committed manifest's log_head
  /// (so whole-suffix truncation is caught, not just splices).
  [[nodiscard]] MembershipLog::AuditResult audit_group_log(const GroupId& gid) const;

  [[nodiscard]] bool is_member(const GroupId& gid, const core::Identity& id) const;
  [[nodiscard]] std::size_t group_size(const GroupId& gid) const;
  [[nodiscard]] std::size_t partition_count(const GroupId& gid) const;
  [[nodiscard]] std::size_t shard_count(const GroupId& gid) const;
  /// Current partition-size target (differs from the configured size once
  /// adaptive re-partitioning has acted).
  [[nodiscard]] std::size_t partition_size_target(const GroupId& gid) const;
  /// Serialized size of all of the group's cloud metadata.
  [[nodiscard]] std::size_t metadata_size(const GroupId& gid) const;
  /// Exact number of files the committed state keeps under groups/<gid>/:
  /// manifest + sealed gk + shards + bundle + overlays + retained deltas
  /// (+ op-log when logging). The crash-consistency tests assert the cloud
  /// listing matches this after every recovery — no orphans, no omissions.
  [[nodiscard]] std::size_t cloud_object_count(const GroupId& gid) const;

  [[nodiscard]] const AdminStats& stats() const { return stats_; }
  /// Workload observations driving adaptive sizing. The admin records its
  /// own adds and removes; decrypts it never sees, since clients do not talk
  /// to the administrator on the read path. The caller must feed them with
  /// record_decrypt(): with none recorded, every adaptive rebuild goes to
  /// the PK bound.
  [[nodiscard]] PartitionAdvisor& advisor() { return advisor_; }
  /// The group's audit log (empty if log_operations is off).
  [[nodiscard]] const MembershipLog& log_of(const GroupId& gid) const;

  [[nodiscard]] util::Bytes verification_key() const {
    return ec::p256_to_bytes(signing_key_.public_key());
  }
  [[nodiscard]] const ec::P256Point& verification_point() const {
    return signing_key_.public_key();
  }

 private:
  using LogHead = std::array<std::uint8_t, 32>;

  /// One shard of the committed layout: which partitions it holds, the
  /// object id it was last written under, and the stored bytes' hash (what
  /// the manifest pins).
  struct Shard {
    std::uint64_t sid = 0;
    std::vector<PartitionId> pids;
    Hash32 hash{};
  };

  struct GroupState {
    /// Partition -> members under STABLE pids, in commit order: the same
    /// view clients fold (its commit fields stay unset; `freshness` and
    /// `delta_hash` below track the commit). Filled by add_partition when a
    /// snapshot is staged or synced; after that only stage_op changes it.
    CachedIndex index;
    /// Each partition's current ciphertext.
    std::map<PartitionId, enclave::PartitionCiphertext> ciphers;
    /// Admin-local, never uploaded: the enclave's record for each partition
    /// it created or re-keyed (IbbeEnclave, "Partition records"). A
    /// partition without one takes a full re-key at the next revocation.
    std::map<PartitionId, util::Bytes> records;
    std::vector<Shard> shards;
    std::uint64_t cipher_set = 0;                   // live bundle object id
    std::map<PartitionId, std::uint64_t> overlays;  // pid -> overlay object id
    sgx::SealedBlob sealed_gk;
    std::uint64_t gk_epoch = 0;           // cloud path of the sealed gk
    std::size_t target_partition_size = 0;
    std::size_t shard_partition_target = 0;  // partitions per shard
    std::uint32_t partition_counter = 0;  // admin-local, see fresh_partition_id
    std::uint32_t epoch_counter = 0;      // admin-local, see fresh_gk_epoch
    std::uint32_t object_counter = 0;     // shard/bundle/overlay ids
    std::uint64_t index_version = 0;      // cloud version at last sync/push
    // The committed manifest's freshness token (counter doubles as the floor
    // handed to the next attestation, and as the last delta's seq).
    enclave::FreshnessToken freshness;
    std::uint64_t delta_base = 0;  // earliest delta retained on the cloud
    /// The committed manifest's delta_hash: the next delta's prev_delta_hash.
    Hash32 delta_hash{};
    /// Delta ops staged by the current mutation attempt; consumed by
    /// push_index (empty = snapshot-barrier commit). Cleared before each
    /// retry so a re-run after a CAS conflict restages from scratch.
    std::vector<DeltaOp> pending_delta;
    /// Set when a mutation failed and its uncommitted changes may still be
    /// here; the next mutation re-syncs first. sync_from_cloud clears it.
    bool needs_sync = false;
  };

  /// What a mutation attempt did with the cached state.
  enum class OpOutcome {
    noop,       // nothing changed, nothing to publish
    published,  // shards/ciphers pushed; manifest still needs publishing
  };

  GroupState& state_of(const GroupId& gid);
  const GroupState& state_of(const GroupId& gid) const;
  PartitionId fresh_partition_id(GroupState& state) const;
  std::uint64_t fresh_gk_epoch(GroupState& state) const;
  /// Fresh copy-on-write object id for shards, bundles and overlays (one
  /// shared counter; the path prefix disambiguates the kind).
  std::uint64_t fresh_object_id(GroupState& state) const;

  [[nodiscard]] std::size_t shard_index_of(const GroupState& state,
                                           PartitionId pid) const;
  /// Places a (new) partition into the last shard with spare capacity, or a
  /// fresh shard; returns the shard index.
  std::size_t assign_to_shard(GroupState& state, PartitionId pid);

  /// Algorithm 1 up to the commit point: splits `members` into partitions
  /// of `partition_size`, runs the enclave's group creation and uploads the
  /// shards, cipher bundle and sealed gk of a fresh generation. The result
  /// keeps `lineage`'s id counters and CAS lineage (when given) and stages
  /// no delta ops, so its commit is a snapshot barrier.
  [[nodiscard]] GroupState stage_generation(
      const GroupId& gid, const GroupState* lineage,
      std::span<const core::Identity> members, std::size_t partition_size);
  /// Shared body of remove_user / remove_users. The op-log subject is the
  /// single id, or "batch=<removed>" when `log_as_batch`.
  void remove_members(const GroupId& gid, std::span<const core::Identity> ids,
                      bool log_as_batch);
  /// Non-CAS put with retries (a retried ambiguous put rewrites the same
  /// bytes). Best-effort list of groups/<gid>/ and erase of one file:
  /// exhausted retries leave files for the next sweep or recover().
  void put_object(const std::string& path, const util::Bytes& bytes);
  std::vector<std::string> list_group(const GroupId& gid);
  void erase_object(const std::string& path);
  /// Serializes, signs and uploads one shard under a fresh object id;
  /// updates the shard's sid + hash in the state.
  void rewrite_shard(const GroupId& gid, GroupState& state, std::size_t shard);
  /// Uploads the full cipher bundle under a fresh id (gk rotations) and
  /// clears the overlay map.
  void write_bundle(const GroupId& gid, GroupState& state);
  /// Uploads one partition's cipher as an overlay under a fresh id.
  void write_overlay(const GroupId& gid, GroupState& state, PartitionId pid);
  /// The commit point: CAS of the signed manifest against the cached
  /// version. Writes the commit's delta first (d<counter>, chained to its
  /// predecessor, pinned by the manifest's delta_hash) unless the staged
  /// ops are empty (snapshot barrier). The manifest carries an
  /// enclave-signed freshness token (tentative counter); the counter is
  /// confirmed to the platform only after the CAS lands, and the commit is
  /// announced on the gossip channel.
  /// Detects this admin's own ambiguous commits (write applied, response
  /// lost) by re-reading and comparing payloads; false means a real
  /// concurrent update.
  [[nodiscard]] bool push_index(const GroupId& gid, GroupState& state,
                                const LogHead& log_head);
  /// Builds the manifest for the current state (shards, cipher objects,
  /// epoch, log head, freshness, delta window).
  [[nodiscard]] GroupManifest build_manifest(const GroupState& state) const;
  /// Best-effort publication of the committed (counter, log_head) to the
  /// gossip channel, so clients can spot rollbacks served to them even
  /// before any peer client has seen the new commit.
  void publish_freshness_gossip(const GroupId& gid,
                                const enclave::FreshnessToken& token);
  /// CAS-merge publication of one op-log entry (pre-commit): fetch, rebase
  /// our entry onto the remote head, put_cas; on conflict re-fetch and merge
  /// so no concurrent admin's entries are lost. Returns the entry's hash —
  /// the manifest's log_head anchor. All-zero when logging is off.
  LogHead publish_log_entry(const GroupId& gid, LogOp op,
                            const std::string& subject);
  /// Post-commit sweep: deletes shard / cipher / delta / sealed-gk files
  /// that the committed manifest no longer references (deltas: anything
  /// outside [delta_base, counter]). Best-effort — a failed sweep leaves
  /// orphans for the next gc/recover, never an inconsistency.
  void gc_group(const GroupId& gid, const GroupState& state);
  /// Advances the local id/epoch/object counters past every id the
  /// committed state carries for this admin's nonce.
  void bump_counters_past(GroupState& state) const;
  /// Partition `pid` as the enclave takes it (record empty if none held),
  /// and the cache update from the enclave (an empty record keeps the
  /// held one).
  static enclave::IbbeEnclave::PartitionHandle handle(const GroupState& state,
                                                      PartitionId pid);
  static void store(GroupState& state, PartitionId pid,
                    enclave::IbbeEnclave::PartitionUpdate update);
  /// Applies `op` to the cached index and stages it for the commit's
  /// delta, so the published delta is exactly the change made. An op the
  /// index rejects is a bug here: std::logic_error.
  static void stage_op(GroupState& state, DeltaOp op);
  /// Shard-local rebuild: merges the shard's members into fresh partitions
  /// of the target size wrapping the CURRENT gk (no rotation), under fresh
  /// stable pids, as one staged repartition op that warm clients fold.
  /// The caller rewrites the shard and the bundle.
  void repartition_shard(GroupState& state, std::size_t shard);
  /// Full re-partition (§V-A): replaces `state` with a staged fresh
  /// generation of all its members (stage_generation), at the advisor's
  /// recommended size when adaptive. Commits nothing; returns the size.
  std::size_t rebuild_group(const GroupId& gid, GroupState& state);

  /// Retry wrapper for a whole mutation: runs `op` against the cached state,
  /// publishes the staged op-log entry, then attempts the manifest CAS; on
  /// conflict re-syncs and re-runs the (idempotent) op. When the mutation
  /// throws, the cached state is re-synced before the rethrow (or, if that
  /// fails too, before the next mutation), so uncommitted changes never
  /// reach a later commit. `op` is called as
  /// op(state, staged); `staged` is the newest op-log entry the op has
  /// published, which the manifest pins — the re-partitioning path publishes
  /// its own entry first and then the rebuild's.
  template <typename Op>
  OpOutcome mutate_with_retry(const GroupId& gid, LogOp logop,
                              const std::string& subject, Op&& op);

  /// Retries `f` on retryable faults (transient) per config_.retry;
  /// CrashError, IntegrityError and everything else propagate.
  template <typename F>
  auto with_retries(F&& f) {
    return util::retry_faults(config_.retry, std::forward<F>(f),
                              &stats_.transient_retries);
  }

  enclave::IbbeEnclave& enclave_;
  cloud::CloudStore& cloud_;
  pki::EcdsaKeyPair signing_key_;
  AdminConfig config_;
  // Trusts our own key + the well-formed peer_verification_keys.
  MetadataReader reader_;
  crypto::Drbg rng_;  // untrusted-side randomness (partition placement only)
  std::map<GroupId, GroupState> cache_;
  std::map<GroupId, MembershipLog> logs_;
  PartitionAdvisor advisor_;
  AdminStats stats_;
};

}  // namespace ibbe::system

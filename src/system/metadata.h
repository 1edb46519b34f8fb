// On-cloud metadata records for the IBBE-SGX access-control system.
//
// Layout on the store (sharded manifest layout; the paper's Dropbox
// deployment gives us per-directory long polling and per-file CAS):
//
//   groups/<gid>/index      — GroupManifest: shard refs (id + hash), the
//                             cipher-set id, per-partition cipher overlays,
//                             gk_epoch, op-log head, freshness token and the
//                             delta window. THE single CAS commit point.
//   groups/<gid>/s<k>       — IndexShard: the member lists of a few whole
//                             partitions. Copy-on-write (fresh id per
//                             rewrite); pinned by the manifest's shard hash.
//   groups/<gid>/c<k>       — CipherBundle: EVERY partition's ciphertext +
//                             wrapped gk, written once per gk rotation so a
//                             revocation re-uploads one object, not one per
//                             partition. Carries the gk_epoch it was written
//                             under, which must match the manifest's.
//   groups/<gid>/o<k>       — CipherOverlay: a single partition's ciphertext
//                             superseding its bundle entry (O(1) adds and
//                             shard-local re-partitions between rotations).
//                             The manifest maps pid -> live overlay id; the
//                             map is cleared whenever a rotation rewrites the
//                             bundle. Carries its pid and gk_epoch, both of
//                             which must match the manifest entry.
//   groups/<gid>/d<seq>     — IndexDelta: the membership diff of the commit
//                             whose freshness counter is <seq>, stored bare
//                             and hash-chained up to the manifest. Warm
//                             clients fold deltas into a cached index instead
//                             of re-downloading every shard; the manifest's
//                             delta_base bounds the retained window.
//   groups/<gid>/gk<e>.sealed, groups/<gid>/oplog — unchanged.
//
// Partition ids are STABLE logical names (a partition keeps its id across
// mutations); copy-on-write immutability lives in the shard / bundle /
// overlay / delta object ids instead. Everything except the sealed gk and
// the deltas is wrapped in SignedEnvelope so clients can authenticate that
// membership changes come from an administrator (the paper's authenticity
// requirement; gk is wrapped, and the signed manifest pins every delta).
// MetadataReader (below) is the one place that decides whether a committed
// object is authentic and current; sign_record is its write side.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "enclave/ibbe_enclave.h"
#include "pki/ecdsa.h"

namespace ibbe::system {

using GroupId = std::string;
using PartitionId = std::uint64_t;
using Hash32 = std::array<std::uint8_t, 32>;

/// SHA-256 of an object's stored bytes (the manifest pins shards/deltas by
/// content, so a stale replica serving an old shard under a live name is
/// detected without trusting cloud versions).
Hash32 content_hash(std::span<const std::uint8_t> data);

/// Manifest entry pinning one shard: which object holds it and what its
/// stored bytes must hash to.
struct ShardRef {
  std::uint64_t sid = 0;
  Hash32 hash{};
};

/// The commit point of every group mutation (see the layout comment above).
/// All shard / bundle / overlay / delta / sealed-gk / op-log writes land on
/// the cloud BEFORE the CAS that publishes this record makes them reachable.
/// It anchors the state that needs the CAS'd lineage for integrity: the
/// shard hashes, which sealed-gk epoch and cipher objects are current, the
/// hash of the op-log entry that committed it (so a rolled-back log suffix
/// is detectable — see MembershipLog::audit), the enclave-signed freshness
/// token binding the commit to a platform monotonic counter (rollback of the
/// whole index+log pair is detectable too — docs/fault_model.md), and the
/// hash of this commit's delta so the chain clients fold is exactly the
/// committed one.
struct GroupManifest {
  std::vector<ShardRef> shards;
  std::uint64_t cipher_set = 0;                // live CipherBundle object id
  std::map<PartitionId, std::uint64_t> overlays;  // pid -> live overlay id
  std::uint64_t gk_epoch = 0;                  // which gk<e>.sealed is live
  std::array<std::uint8_t, 32> log_head{};     // committed op-log head (0 = none)
  enclave::FreshnessToken freshness;           // counter == 0 ⇒ not attested
  /// Earliest delta seq still retained on the cloud. A snapshot-barrier
  /// commit (creation, full re-partition) publishes no delta and sets this
  /// to counter+1; clients whose cache is older than delta_base-1 must take
  /// a full snapshot.
  std::uint64_t delta_base = 0;
  /// SHA-256 of this commit's stored delta (d<freshness.counter>); all-zero
  /// on a snapshot barrier. The head of the delta hash chain: each delta
  /// names its predecessor's hash, so this one pin authenticates the whole
  /// retained window against a racing or Byzantine writer.
  Hash32 delta_hash{};

  [[nodiscard]] util::Bytes to_bytes() const;
  static GroupManifest from_bytes(std::span<const std::uint8_t> data);
};

/// A few whole partitions' member lists (user -> partition mapping is stored
/// plainly; the model does not hide member identities, paper §II). Shards
/// are partition-aligned because a client needs its complete partition
/// member list to run the IBBE decrypt.
struct IndexShard {
  std::uint64_t sid = 0;
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> partitions;

  [[nodiscard]] util::Bytes to_bytes() const;
  static IndexShard from_bytes(std::span<const std::uint8_t> data);
};

/// Every partition's ciphertext + wrapped gk for one key epoch. Rewritten as
/// a single object per gk rotation — the reason a million-member revocation
/// uploads O(1) objects instead of one per partition.
struct CipherBundle {
  std::uint64_t gk_epoch = 0;  // the key epoch every entry wraps
  std::vector<std::pair<PartitionId, enclave::PartitionCiphertext>> entries;

  [[nodiscard]] const enclave::PartitionCiphertext* find(PartitionId pid) const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static CipherBundle from_bytes(std::span<const std::uint8_t> data);
};

/// One partition's ciphertext superseding its bundle entry between rotations.
struct CipherOverlay {
  PartitionId pid = 0;
  std::uint64_t gk_epoch = 0;  // the key epoch `cipher` wraps
  enclave::PartitionCiphertext cipher;

  [[nodiscard]] util::Bytes to_bytes() const;
  static CipherOverlay from_bytes(std::span<const std::uint8_t> data);
};

/// One membership diff inside an IndexDelta; CachedIndex::apply_op says
/// what each kind does to a view.
struct DeltaOp {
  enum class Kind : std::uint8_t {
    add_member = 1,     // `user` joins `pid`
    remove_member = 2,  // `user` leaves `pid`
    repartition = 3,    // shard-local rebuild: `dropped` pids replaced by
                        // `created` (pid, members) partitions
  };
  Kind kind = Kind::add_member;
  core::Identity user;  // add/remove
  PartitionId pid = 0;  // add/remove
  std::vector<PartitionId> dropped{};  // repartition
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> created{};
};

/// The membership diff of one commit. `seq` equals the commit's freshness
/// counter (so the file name d<seq> and the enclave counter agree by
/// construction). `prev_delta_hash` is the content hash of the stored
/// d<seq-1> (all-zero after a snapshot barrier), so the manifest's
/// delta_hash pins every retained delta: a clobbered, spliced or reordered
/// delta breaks the chain and forces a (safe) snapshot fallback. Deltas
/// also chain through the op-log heads the commits anchored.
struct IndexDelta {
  std::uint64_t seq = 0;
  Hash32 prev_delta_hash{};
  std::array<std::uint8_t, 32> prev_log_head{};
  std::array<std::uint8_t, 32> log_head{};
  std::vector<DeltaOp> ops;

  [[nodiscard]] util::Bytes to_bytes() const;
  static IndexDelta from_bytes(std::span<const std::uint8_t> data);
};

/// A group's membership view: the partition -> members mapping at a known
/// commit (counter, log_head), in commit order. Clients fold IndexDeltas
/// into it with `apply`; the administrator keeps its own state in one and
/// changes it only through `apply_op`, so `apply_op` is the one place that
/// defines what a DeltaOp does. `find_user` is the O(1) membership lookup
/// backed by a lazily built hash map that ops keep incrementally up to date
/// (the seed's linear scan was O(total members) per fetch — at 10⁶ members
/// that dominated everything).
class CachedIndex {
 public:
  std::uint64_t counter = 0;
  std::array<std::uint8_t, 32> log_head{};
  std::uint64_t gk_epoch = 0;
  Hash32 delta_hash{};  // the manifest's at `counter`; next prev_delta_hash

  [[nodiscard]] const std::vector<
      std::pair<PartitionId, std::vector<core::Identity>>>&
  partitions() const {
    return partitions_;
  }
  /// Appends a partition (snapshot assembly). Invalidates the lookup map.
  void add_partition(PartitionId pid, std::vector<core::Identity> members);

  /// O(1) membership lookup (amortized: the map is built on first use).
  [[nodiscard]] std::optional<PartitionId> find_user(
      const core::Identity& id) const;
  /// The member list of one partition; nullptr if unknown.
  [[nodiscard]] const std::vector<core::Identity>* members_of(
      PartitionId pid) const;
  [[nodiscard]] std::size_t member_count() const;

  /// Applies one op. add_member appends `user` to `pid`, creating the
  /// partition at the end if absent; remove_member drops a partition it
  /// empties; repartition removes `dropped` and appends `created` in order.
  /// Returns false, possibly after a partial change, unless the op is
  /// structurally consistent with the view: no user in two partitions, no
  /// removal of an absent user, no unknown dropped or reused created pid.
  [[nodiscard]] bool apply_op(const DeltaOp& op);

  /// Folds one delta. Returns false unless `d` is exactly the next commit
  /// (seq == counter+1 and prev_log_head chains from our log_head) and every
  /// op applies; a replayed or duplicated delta therefore is a no-op by
  /// construction (the chain check rejects it before anything mutates). A
  /// STRUCTURAL rejection may leave a partially folded view — callers must
  /// discard the view and fall back to a snapshot, which is what the
  /// client's fold path does.
  [[nodiscard]] bool apply(const IndexDelta& d);

 private:
  std::vector<std::pair<PartitionId, std::vector<core::Identity>>> partitions_;
  mutable std::unordered_map<core::Identity, PartitionId> user_map_;
  mutable bool map_built_ = false;

  void build_map() const;
  [[nodiscard]] std::size_t partition_index(PartitionId pid) const;
};

/// payload || ECDSA signature by the administrator.
struct SignedEnvelope {
  /// Stored bytes beyond the payload: its u32 length prefix + the signature.
  static constexpr std::size_t stored_overhead =
      4 + pki::EcdsaSignature::serialized_size;

  util::Bytes payload;
  pki::EcdsaSignature signature;

  [[nodiscard]] util::Bytes to_bytes() const;
  static SignedEnvelope from_bytes(std::span<const std::uint8_t> data);

  static SignedEnvelope sign(const pki::EcdsaKeyPair& key, util::Bytes payload);
  [[nodiscard]] bool verify(const ec::P256Point& admin_pub) const;
  /// True if any of the trusted administrator keys signed the payload.
  [[nodiscard]] bool verify(std::span<const ec::P256Point> admin_keys) const;
};

/// Signs a record with the administrator key and returns the bytes to store:
/// the write side of MetadataReader.
template <typename Record>
util::Bytes sign_record(const pki::EcdsaKeyPair& key, const Record& record) {
  return SignedEnvelope::sign(key, record.to_bytes()).to_bytes();
}

/// What MetadataReader concluded about one committed object.
enum class ReadVerdict {
  ok,
  absent,           // not served: a torn view, a lagging replica, or the GC
  stale,            // authentic but not what the manifest committed (hash
                    // pin, pid or gk_epoch mismatch); heals by re-reading
  unauthenticated,  // malformed, untrusted signature, or a freshness token
                    // that is forged or binds other state
};

template <typename Record>
struct Verified {
  ReadVerdict verdict = ReadVerdict::absent;
  Record record{};  // meaningful only when ok()
  [[nodiscard]] bool ok() const { return verdict == ReadVerdict::ok; }
};

/// The one place that decides whether committed group metadata is authentic
/// and current. Each method takes an object's stored bytes (nullopt = not
/// served) and the commit referencing it, and never throws on hostile bytes.
/// Callers keep their own cloud reads and only map the verdict: AdminApi to
/// cloud::TransientError (absent, stale) or util::IntegrityError
/// (unauthenticated), ClientApi to a degraded fetch.
class MetadataReader {
 public:
  explicit MetadataReader(std::vector<ec::P256Point> admin_keys)
      : admin_keys_(std::move(admin_keys)) {}
  [[nodiscard]] const std::vector<ec::P256Point>& admin_keys() const {
    return admin_keys_;
  }

  /// With a `freshness_key`, the freshness token must also be attested
  /// (counter > 0), enclave-signed for `gid` and bound to the manifest's
  /// gk_epoch and log_head. Counter monotonicity stays with the caller.
  [[nodiscard]] Verified<GroupManifest> manifest(
      const std::optional<util::Bytes>& stored, const GroupId& gid,
      const ec::P256Point* freshness_key) const;
  [[nodiscard]] Verified<IndexShard> shard(
      const std::optional<util::Bytes>& stored, const ShardRef& ref) const;
  [[nodiscard]] Verified<CipherBundle> bundle(
      const std::optional<util::Bytes>& stored, const GroupManifest& m) const;
  /// Partition `pid`'s entry of the bundle `m` commits: authenticated
  /// exactly as bundle() does, but only this entry's ciphertext is decoded
  /// (the others are skipped by their length prefix). `absent` also when the
  /// bundle holds no entry for `pid`.
  [[nodiscard]] Verified<enclave::PartitionCiphertext> bundle_entry(
      const std::optional<util::Bytes>& stored, const GroupManifest& m,
      PartitionId pid) const;
  /// The overlay `m` maps to partition `pid`.
  [[nodiscard]] Verified<CipherOverlay> overlay(
      const std::optional<util::Bytes>& stored, const GroupManifest& m,
      PartitionId pid) const;

 private:
  std::vector<ec::P256Point> admin_keys_;
};

/// One observer's view of a group's freshness, published to the gossip
/// channel (unsigned — the channel is a HINT: a forged observation can make
/// verifiers refuse service, never accept stale state). Two observations
/// with the same counter but different log heads are proof of a fork.
struct FreshnessObservation {
  std::uint64_t counter = 0;
  std::array<std::uint8_t, 32> log_head{};

  [[nodiscard]] util::Bytes to_bytes() const;
  static FreshnessObservation from_bytes(std::span<const std::uint8_t> data);
};

/// Cloud paths.
std::string group_dir(const GroupId& gid);
std::string index_path(const GroupId& gid);
std::string shard_path(const GroupId& gid, std::uint64_t sid);
std::string cipher_bundle_path(const GroupId& gid, std::uint64_t id);
std::string cipher_overlay_path(const GroupId& gid, std::uint64_t id);
std::string delta_path(const GroupId& gid, std::uint64_t seq);
/// The sealed group key is stored under an epoch-keyed name (fresh epoch per
/// rotation, allocated like object ids so concurrent admins never write the
/// same path); the committed manifest says which epoch is live.
std::string sealed_gk_path(const GroupId& gid, std::uint64_t epoch);
/// Freshness-gossip channel. Deliberately OUTSIDE groups/<gid>/: gossip
/// writes must not wake group-directory long-pollers, and the channel models
/// the out-of-band client-to-client path of ROTE-style fork detection.
std::string gossip_dir(const GroupId& gid);
std::string gossip_path(const GroupId& gid, const std::string& observer);

/// The numbered object kinds under groups/<gid>/ and the id each name
/// carries (a delta's is its seq, a sealed gk's its epoch).
struct ObjectName {
  enum class Kind { shard, cipher_bundle, cipher_overlay, delta, sealed_gk };
  Kind kind = Kind::shard;
  std::uint64_t id = 0;
};
/// Inverts the numbered path builders above; nullopt for the manifest, the
/// op-log and any other name.
std::optional<ObjectName> parse_object_path(const GroupId& gid,
                                            const std::string& path);

}  // namespace ibbe::system

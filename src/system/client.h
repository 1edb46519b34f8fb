// Client API (paper §V): no SGX required.
//
// A client holds the system public key, its provisioned IBBE user key and
// the administrator's signature-verification key. It derives the group key
// entirely from public cloud metadata:
//
//   manifest -> my partition (cached index) -> partition ciphertext
//            -> IBBE decrypt bk (prepared partition + 2 pairings)
//            -> gk = AES-GCM-open(SHA-256(bk), y_p)
//
// A fetch pays only for what the commit changed. After a gk rotation it
// downloads the new bundle, authenticates it whole, and decodes only its
// own partition's entry (MetadataReader::bundle_entry). It keeps one
// core::PreparedPartition per group together with the exact member list it
// was prepared from, so the O(|p|^2) polynomial expansion and MSM run only
// when that list changes; every other fetch runs the prepared decrypt (one
// C2 line table and a 2-pair multi-pairing; 1/Delta is folded into the
// prepared partition, so there is no GT exponentiation).
//
// The membership index is sharded (metadata.h): the manifest pins each
// shard's content hash, and every commit publishes an incremental delta that
// names its predecessor's hash, with the manifest pinning the newest. A
// client keeps a locally cached CachedIndex per group; on fetch it
//   * reuses the cache untouched when the manifest shows the same commit
//     (warm path — zero index bytes downloaded),
//   * folds the missing deltas when its cache is inside the manifest's
//     retention window, after checking that their hash chain runs from the
//     view's own commit to the manifest's delta_hash (no per-delta
//     signature: the manifest's covers the chain); each fold also checks
//     the delta's seq/log-head link,
//   * falls back to a full shard-by-shard snapshot on any gap, hash
//     mismatch, chain break, or fork verdict — folding can degrade service,
//     never correctness.
// Membership lookups on the cached index are O(1) via a lazily built hash
// map that delta folds keep incrementally up to date.
//
// Change detection uses the store's long polling on the group directory,
// mirroring the paper's Dropbox long-polling client.
//
// Degraded-mode behaviour (docs/fault_model.md): every cloud read retries
// transient errors under the configured RetryPolicy, stale manifest reads
// are rejected by version monotonicity (the commit point only ever raises
// the index version), and a torn snapshot — a manifest referencing a shard
// or cipher object the replica does not serve yet, a shard whose bytes do
// not match the pinned hash, a cipher object bound to another partition or
// key epoch, an unverifiable envelope (MetadataReader's verdicts), or a
// ciphertext that fails to decrypt for a listed member — triggers a full
// snapshot re-fetch rather than an error. Only a consistent, authenticated
// view ever produces a key; only a consistent view proves non-membership.
//
// Byzantine-cloud defence (opt-in, docs/fault_model.md "Malicious tier"):
// enable_freshness() makes the client verify the enclave-signed freshness
// token every committed manifest carries — signature, binding to
// (gk_epoch, log_head), and monotonicity against a per-group high-water mark
// — so a rolled-back manifest+log pair (internally consistent, correctly
// signed, merely OLD) is rejected, not just a spliced one. enable_gossip()
// adds fork detection: clients piggyback their observed (counter, log_head)
// on an out-of-band channel and cross-check it before accepting a view, so
// two clients served divergent equal-counter views detect the fork within
// one poll round. Gossip is an unsigned HINT — it can only make this client
// refuse a view (denial of service, already in the cloud's power), never
// accept a stale one. On detection the client degrades gracefully: fetch()
// reports `stale` or `forked` and returns the last VERIFIED key read-only;
// it never silently serves unverified state.
#pragma once

#include <chrono>
#include <set>

#include "cloud/store.h"
#include "ibbe/ibbe.h"
#include "system/metadata.h"
#include "util/retry.h"

namespace ibbe::system {

struct ClientStats {
  std::uint64_t fetches = 0;
  std::uint64_t decryptions = 0;
  std::uint64_t prepares = 0;             // O(|p|^2) partition preparations
  std::uint64_t signature_failures = 0;
  std::uint64_t transient_retries = 0;    // cloud round trips retried
  std::uint64_t stale_reads_rejected = 0; // manifest versions below the floor
  std::uint64_t degraded_refetches = 0;   // whole-snapshot re-fetches
  std::uint64_t delta_folds = 0;          // deltas folded into the cache
  std::uint64_t fold_fallbacks = 0;       // cache discarded -> full snapshot
  std::uint64_t freshness_rejections = 0; // views below the freshness HWM
  std::uint64_t forks_detected = 0;       // equal-counter divergent views
  std::uint64_t gossip_rounds = 0;        // observation scans performed
};

class ClientApi {
 public:
  ClientApi(cloud::CloudStore& cloud, core::PublicKey pk,
            core::UserSecretKey usk, ec::P256Point admin_verification_key);
  /// Multi-administrator deployments: metadata signed by any of `admin_keys`
  /// is accepted.
  ClientApi(cloud::CloudStore& cloud, core::PublicKey pk,
            core::UserSecretKey usk, std::vector<ec::P256Point> admin_keys);

  /// Backoff discipline for transient cloud errors and snapshot re-fetches.
  void set_retry_policy(util::RetryPolicy policy) { retry_ = policy; }

  /// Opts in to enclave-anchored rollback protection: every manifest must
  /// carry a freshness token verifiable under the enclave identity key,
  /// bound to the manifest's (gk_epoch, log_head), with a counter that never
  /// moves backwards per group. Without this call behaviour is unchanged.
  void enable_freshness(ec::P256Point enclave_identity_key) {
    freshness_key_ = enclave_identity_key;
  }
  /// Opts in to fork detection: publish this client's observed
  /// (counter, log_head) under gossip/<gid>/client-<id> and cross-check
  /// peers' observations before accepting any view. Requires
  /// enable_freshness to have any effect.
  void enable_gossip(std::string client_id) { gossip_id_ = std::move(client_id); }

  /// Validates the provisioned user key against the system public key
  /// (core::verify_user_key) — the paper's guard against a rogue issuer.
  /// Repeated calls reuse the PK's cached pairing precomputation.
  [[nodiscard]] bool verify_credentials() const;

  /// What a full fetch concluded about the group, beyond key-or-no-key.
  enum class FetchStatus {
    ok,           // fresh verified view; `key` holds the group key
    not_member,   // a fresh consistent view proves we are not in the group
    stale,        // every view offered was below the freshness high-water
                  // mark (rollback); `key` is the last VERIFIED key, if any
    forked,       // divergent equal-counter views proven (sticky per group);
                  // `key` is the last VERIFIED key, if any
    unavailable,  // retries exhausted without a consistent view
  };
  struct FetchResult {
    FetchStatus status = FetchStatus::unavailable;
    /// The group key on `ok`; on `stale`/`forked`, the last key this client
    /// VERIFIED — safe for reading existing data, never for new writes.
    std::optional<util::Bytes> key;
  };

  /// Full fetch-and-decrypt with the Byzantine verdict surfaced.
  [[nodiscard]] FetchResult fetch(const GroupId& gid);

  /// Full fetch-and-decrypt; std::nullopt if this user is not (or no longer)
  /// a member, or the metadata fails authentication (fetch().key iff ok).
  [[nodiscard]] std::optional<util::Bytes> fetch_group_key(const GroupId& gid);

  /// True once divergent views have been proven for the group. Sticky: a
  /// fork is an existential property of the server, not a transient fault.
  [[nodiscard]] bool is_forked(const GroupId& gid) const {
    return forked_.count(gid) != 0;
  }

  /// Blocks until the group's COMMITTED state changes relative to the last
  /// observation, then re-derives the key. std::nullopt on timeout or
  /// revocation. Directory wakes caused by an admin's pre-commit shadow
  /// writes (fresh shards, deltas, sealed gk, op-log — all pushed before the
  /// manifest CAS) do not complete the wait: only the manifest version
  /// moving past the one this client last authenticated does. Spurious
  /// long-poll timeouts and transient poll errors re-arm with the remaining
  /// budget.
  [[nodiscard]] std::optional<util::Bytes> wait_for_update(
      const GroupId& gid, std::chrono::milliseconds timeout);

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] const core::Identity& identity() const { return usk_.id; }

 private:
  /// One snapshot attempt's verdict.
  enum class Fetch {
    ok,          // `key` holds the group key
    not_member,  // a consistent view proves we are not in the group
    degraded,    // torn/stale/unauthenticated view: re-fetch the snapshot
    forked,      // divergent equal-counter views proven — terminal
  };
  /// `fresh_rejected` is set (never cleared) when a degraded verdict was a
  /// FRESHNESS rejection, so retry exhaustion reports `stale`, not
  /// `unavailable`.
  Fetch fetch_once(const GroupId& gid, util::Bytes& key, bool& fresh_rejected);

  /// Brings this group's CachedIndex up to the manifest's commit: warm reuse
  /// -> delta fold -> full snapshot, in that order. Returns the cached view,
  /// or nullptr when even the snapshot read a torn/unauthenticated state
  /// (the fetch attempt degrades).
  CachedIndex* refresh_view(const GroupId& gid, const GroupManifest& m);
  /// Folds deltas (cached.counter, m.counter] into `view`. False on any gap,
  /// delta-hash chain mismatch, parse failure, or seq/log-head chain break.
  bool fold_deltas(const GroupId& gid, const GroupManifest& m,
                   CachedIndex& view);
  /// Rebuilds the view from every shard, hash-checked against the manifest.
  bool load_snapshot(const GroupId& gid, const GroupManifest& m,
                     CachedIndex& view);
  /// The partition's current ciphertext: the manifest's overlay if one is
  /// live for `pid`, else the bundle entry. Caches by object path, plus the
  /// pid for the bundle's one decoded entry (objects are copy-on-write, so a
  /// path's content never changes). nullptr on a torn or unauthenticated
  /// read.
  const enclave::PartitionCiphertext* get_cipher(const GroupId& gid,
                                                 const GroupManifest& m,
                                                 PartitionId pid);
  /// The group's PreparedPartition for `members` under `pid`, re-prepared
  /// only when either differs from what the cached one was prepared from.
  /// nullptr when prepare refuses the list (see PreparedPartition::prepare).
  const core::PreparedPartition* get_prepared(
      const GroupId& gid, PartitionId pid,
      const std::vector<core::Identity>& members);
  /// One read with retries; nullopt when absent or retries ran out (torn).
  std::optional<util::Bytes> get_object(const std::string& path);
  /// Only `ok` is usable; `unauthenticated` counts a signature failure.
  bool usable(ReadVerdict verdict);
  /// Drops the group's index, cipher and prepared-partition caches
  /// (cross-file torn snapshot: the next attempt rebuilds from scratch).
  void invalidate_caches(const GroupId& gid);

  /// High-water-mark and gossip checks for a manifest whose freshness token
  /// the reader already authenticated.
  Fetch check_freshness(const GroupId& gid, const GroupManifest& m,
                        bool& fresh_rejected);
  /// Raises the per-group high-water mark and gossips the advance.
  void note_fresh_view(const GroupId& gid, const enclave::FreshnessToken& tok);
  void publish_gossip(const GroupId& gid, const enclave::FreshnessToken& tok);
  [[nodiscard]] std::vector<FreshnessObservation> read_gossip(
      const GroupId& gid) const;
  [[nodiscard]] std::optional<util::Bytes> last_key(const GroupId& gid) const;

  /// Retries `f` on retryable faults (transient) per retry_; crash and
  /// integrity faults propagate.
  template <typename F>
  auto with_retries(F&& f) {
    return util::retry_faults(retry_, std::forward<F>(f),
                              &stats_.transient_retries);
  }

  cloud::CloudStore& cloud_;
  core::PublicKey pk_;
  core::UserSecretKey usk_;
  MetadataReader reader_;  // trusts the administrator keys
  util::RetryPolicy retry_;
  std::map<GroupId, std::uint64_t> seen_versions_;
  // Highest authenticated manifest version seen per group: the commit point
  // only moves versions forward, so anything below is a stale replica read.
  std::map<GroupId, std::uint64_t> index_floor_;

  // ---- local index, cipher and decrypt caches (the warm/fold fast paths) --
  std::map<GroupId, CachedIndex> cache_;
  struct CipherCache {
    // The one bundle entry decoded, keyed by (bundle object path, pid).
    std::string bundle_path;
    PartitionId pid = 0;
    enclave::PartitionCiphertext entry;
    // overlay object path -> ciphertext; cleared when the bundle rotates
    // (a rotation supersedes every overlay of the previous epoch).
    std::map<std::string, enclave::PartitionCiphertext> overlays;
  };
  std::map<GroupId, CipherCache> cipher_cache_;
  struct PreparedCache {
    PartitionId pid = 0;
    std::vector<core::Identity> members;  // exactly what `part` was built from
    std::optional<core::PreparedPartition> part;
  };
  std::map<GroupId, PreparedCache> prepared_;

  // ---- Byzantine defence state (inert until enable_freshness) ----
  struct FreshnessHwm {
    std::uint64_t counter = 0;
    std::array<std::uint8_t, 32> log_head{};
  };
  std::optional<ec::P256Point> freshness_key_;  // enclave identity key
  std::string gossip_id_;                       // empty = gossip off
  std::map<GroupId, FreshnessHwm> freshness_hwm_;
  std::set<GroupId> forked_;                    // proven-divergent groups
  std::map<GroupId, util::Bytes> last_verified_key_;  // degraded read-only

  ClientStats stats_;
};

}  // namespace ibbe::system

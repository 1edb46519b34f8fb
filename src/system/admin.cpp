#include "system/admin.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>

namespace ibbe::system {

using core::Identity;

namespace {

constexpr int max_cas_retries = 8;
constexpr int max_log_publish_attempts = 64;

/// The member list of a partition the admin's index must hold.
const std::vector<Identity>& members_of(const CachedIndex& index,
                                        PartitionId pid) {
  const auto* members = index.members_of(pid);
  if (!members) throw std::logic_error("AdminApi: unknown partition id");
  return *members;
}

/// The occupancy rule of §V-A over partitions given by their member counts:
/// "if less than half of the partitions are only two thirds full, then
/// re-partitioning is triggered", i.e. more than half of them below 2/3 of
/// `target`. Over all partitions it triggers a full rebuild (snapshot
/// barrier); over one shard's, a shard-local one that keeps the repair
/// O(shard) and lets clients fold it as a delta.
template <std::ranges::input_range Sizes>
bool mostly_sparse(std::size_t target, Sizes&& sizes) {
  const std::size_t threshold = (target * 2 + 2) / 3;  // ceil(2m/3)
  std::size_t total = 0;
  std::size_t sparse = 0;
  for (std::size_t n : sizes) {
    ++total;
    if (n < threshold) ++sparse;
  }
  return total >= 2 && sparse * 2 > total;
}

std::vector<ec::P256Point> trusted_keys(
    const ec::P256Point& own, const std::vector<util::Bytes>& peers) {
  std::vector<ec::P256Point> keys{own};
  for (const auto& key_bytes : peers) {
    try {
      keys.push_back(ec::p256_from_bytes(key_bytes));
    } catch (const util::DeserializeError&) {
      // malformed configured key: skip
    }
  }
  return keys;
}

/// Maps a MetadataReader verdict onto the fault taxonomy (util/errors.h):
/// absent and stale objects heal by re-reading; unauthenticated ones are
/// evidence of tampering.
template <typename Record>
Record adopt(Verified<Record> read, const std::string& what) {
  if (read.verdict == ReadVerdict::unauthenticated) {
    throw util::IntegrityError("sync_from_cloud: " + what + " not authentic");
  }
  if (!read.ok()) {
    throw cloud::TransientError(
        "sync_from_cloud: " + what +
        (read.verdict == ReadVerdict::absent ? " not yet visible" : " stale"));
  }
  return std::move(read.record);
}

}  // namespace

AdminApi::AdminApi(enclave::IbbeEnclave& enclave, cloud::CloudStore& cloud,
                   pki::EcdsaKeyPair signing_key, AdminConfig config,
                   std::uint64_t seed)
    : enclave_(enclave),
      cloud_(cloud),
      signing_key_(std::move(signing_key)),
      config_(std::move(config)),
      reader_(trusted_keys(signing_key_.public_key(),
                           config_.peer_verification_keys)),
      rng_(seed) {
  if (config_.partition_size == 0) {
    throw std::invalid_argument("AdminApi: partition_size must be positive");
  }
  if (config_.partition_size > enclave_.public_key().max_receivers()) {
    throw std::invalid_argument(
        "AdminApi: partition_size exceeds the enclave's PK bound");
  }
}

AdminApi::GroupState& AdminApi::state_of(const GroupId& gid) {
  auto it = cache_.find(gid);
  if (it == cache_.end()) throw std::out_of_range("AdminApi: unknown group " + gid);
  return it->second;
}

const AdminApi::GroupState& AdminApi::state_of(const GroupId& gid) const {
  auto it = cache_.find(gid);
  if (it == cache_.end()) throw std::out_of_range("AdminApi: unknown group " + gid);
  return it->second;
}

PartitionId AdminApi::fresh_partition_id(GroupState& state) const {
  // High 32 bits distinguish administrators so concurrent creations never
  // collide; with the default nonce of 0 this degenerates to 0, 1, 2, ...
  return (static_cast<PartitionId>(config_.admin_nonce) << 32) |
         state.partition_counter++;
}

std::uint64_t AdminApi::fresh_gk_epoch(GroupState& state) const {
  // Allocated like partition ids: the epoch doubles as the sealed gk's cloud
  // filename, so two admins rotating concurrently must never share one.
  return (static_cast<std::uint64_t>(config_.admin_nonce) << 32) |
         state.epoch_counter++;
}

std::uint64_t AdminApi::fresh_object_id(GroupState& state) const {
  // One counter for shards, bundles and overlays: the path prefix (s/c/o)
  // already tells the kinds apart, and a single sequence keeps recover()'s
  // bump-past-leftovers scan simple.
  return (static_cast<std::uint64_t>(config_.admin_nonce) << 32) |
         state.object_counter++;
}

std::size_t AdminApi::shard_index_of(const GroupState& state,
                                     PartitionId pid) const {
  for (std::size_t s = 0; s < state.shards.size(); ++s) {
    const auto& pids = state.shards[s].pids;
    if (std::find(pids.begin(), pids.end(), pid) != pids.end()) return s;
  }
  throw std::logic_error("AdminApi: partition not in any shard");
}

std::size_t AdminApi::assign_to_shard(GroupState& state, PartitionId pid) {
  std::size_t cap = std::max<std::size_t>(state.shard_partition_target, 1);
  if (state.shards.empty() || state.shards.back().pids.size() >= cap) {
    state.shards.emplace_back();
  }
  state.shards.back().pids.push_back(pid);
  return state.shards.size() - 1;
}

void AdminApi::put_object(const std::string& path, const util::Bytes& bytes) {
  with_retries([&] {
    cloud_.put(path, bytes);
    return 0;
  });
}

std::vector<std::string> AdminApi::list_group(const GroupId& gid) {
  try {
    return with_retries([&] { return cloud_.list(group_dir(gid) + "/"); });
  } catch (const cloud::TransientError&) {
    return {};  // best-effort; a later sweep (or recover) sees the files
  }
}

void AdminApi::erase_object(const std::string& path) {
  try {
    with_retries([&] { return cloud_.erase(path); });
  } catch (const cloud::TransientError&) {
    // leave the orphan for the next sweep
  }
}

void AdminApi::rewrite_shard(const GroupId& gid, GroupState& state,
                             std::size_t shard) {
  Shard& sh = state.shards[shard];
  IndexShard rec;
  rec.sid = fresh_object_id(state);
  rec.partitions.reserve(sh.pids.size());
  for (PartitionId pid : sh.pids) {
    rec.partitions.emplace_back(pid, members_of(state.index, pid));
  }
  auto bytes = sign_record(signing_key_, rec);
  put_object(shard_path(gid, rec.sid), bytes);
  sh.sid = rec.sid;
  sh.hash = content_hash(bytes);
}

void AdminApi::write_bundle(const GroupId& gid, GroupState& state) {
  CipherBundle bundle;
  bundle.gk_epoch = state.gk_epoch;
  bundle.entries.reserve(state.ciphers.size());
  for (const auto& [pid, members] : state.index.partitions()) {
    bundle.entries.emplace_back(pid, state.ciphers.at(pid));
  }
  auto id = fresh_object_id(state);
  put_object(cipher_bundle_path(gid, id), sign_record(signing_key_, bundle));
  state.cipher_set = id;
  // A fresh bundle carries every partition's current ciphertext; overlays
  // written for the previous epoch are superseded wholesale.
  state.overlays.clear();
}

void AdminApi::write_overlay(const GroupId& gid, GroupState& state,
                             PartitionId pid) {
  CipherOverlay overlay{pid, state.gk_epoch, state.ciphers.at(pid)};
  auto id = fresh_object_id(state);
  put_object(cipher_overlay_path(gid, id), sign_record(signing_key_, overlay));
  state.overlays[pid] = id;
}

GroupManifest AdminApi::build_manifest(const GroupState& state) const {
  GroupManifest m;
  m.shards.reserve(state.shards.size());
  for (const auto& sh : state.shards) m.shards.push_back({sh.sid, sh.hash});
  m.cipher_set = state.cipher_set;
  m.overlays = state.overlays;
  m.gk_epoch = state.gk_epoch;
  m.log_head = state.freshness.log_head;
  m.freshness = state.freshness;
  m.delta_base = state.delta_base;
  return m;  // delta_hash stays zero; push_index fills the commit fields
}

bool AdminApi::push_index(const GroupId& gid, GroupState& state,
                          const LogHead& log_head) {
  // Tentative freshness attestation: the enclave signs one counter above
  // everything it (or this admin's last sync) knows committed, but persists
  // nothing yet — an abandoned CAS attempt must not open a gap between the
  // platform counter and the highest committed token.
  auto token = enclave_.ecall_attest_freshness(
      gid, state.freshness.counter, state.gk_epoch, log_head);

  const bool barrier = state.pending_delta.empty();
  Hash32 delta_hash{};
  std::uint64_t delta_base = state.delta_base;
  if (barrier) {
    // Snapshot barrier (creation, full re-partition): no delta exists for
    // this commit, and nothing older is foldable across it.
    delta_base = token.counter + 1;
  } else {
    IndexDelta delta;
    delta.seq = token.counter;
    delta.prev_delta_hash = state.delta_hash;
    delta.prev_log_head = state.freshness.log_head;
    delta.log_head = log_head;
    delta.ops = state.pending_delta;
    auto bytes = delta.to_bytes();
    // Delta names are keyed by the GLOBAL freshness counter, so a lost CAS
    // race (or a crashed predecessor's orphan) can leave a different payload
    // under d<seq>. A plain put is still safe: the committed manifest pins
    // its own delta by hash, and each delta pins its predecessor's, so a
    // client folding a clobbered delta falls back to a snapshot — it can
    // never fold the wrong ops silently.
    put_object(delta_path(gid, delta.seq), bytes);
    delta_hash = content_hash(bytes);
    if (delta_base == 0) delta_base = token.counter;  // first-ever delta
    std::uint64_t window = std::max<std::uint64_t>(config_.delta_window, 1);
    if (token.counter >= delta_base && token.counter - delta_base + 1 > window) {
      delta_base = token.counter + 1 - window;
    }
  }

  GroupManifest m = build_manifest(state);
  m.log_head = log_head;
  m.freshness = token;
  m.delta_base = delta_base;
  m.delta_hash = delta_hash;
  auto bytes = sign_record(signing_key_, m);

  auto committed = [&](std::uint64_t version) {
    state.index_version = version;
    state.freshness = token;
    state.delta_base = delta_base;
    state.delta_hash = delta_hash;
    if (!barrier) stats_.deltas_published++;
    state.pending_delta.clear();
    // Only now does the counter become the platform's confirmed floor; any
    // manifest attested below it is henceforth provably rolled back.
    enclave_.ecall_confirm_freshness(gid, token.counter);
    publish_freshness_gossip(gid, token);
    return true;
  };

  // Always CAS-guarded, even with a single administrator: an ambiguous put
  // retried blindly could otherwise clobber a concurrent (or our own
  // half-applied) commit.
  std::optional<std::uint64_t> version;
  try {
    version = with_retries(
        [&] { return cloud_.put_cas(index_path(gid), bytes, state.index_version); });
  } catch (const cloud::TransientError&) {
    version = std::nullopt;  // exhausted retries: resolve by re-reading below
  }
  if (version) return committed(*version);
  // Version conflict — but an ambiguous put that DID apply makes our own
  // commit look like somebody else's. Re-read and compare payloads.
  try {
    auto current =
        with_retries([&] { return cloud_.get_versioned(index_path(gid)); });
    if (current && current->value == bytes) return committed(current->version);
  } catch (const cloud::TransientError&) {
    // Treat as a real conflict; the caller re-syncs and retries the op.
  }
  ++stats_.cas_conflicts;
  return false;
}

void AdminApi::publish_freshness_gossip(const GroupId& gid,
                                        const enclave::FreshnessToken& token) {
  FreshnessObservation obs;
  obs.counter = token.counter;
  obs.log_head = token.log_head;
  auto bytes = obs.to_bytes();
  try {
    put_object(gossip_path(gid, "admin-" + config_.admin_name), bytes);
  } catch (const cloud::TransientError&) {
    // Best-effort: the hint channel converges through the clients' own
    // observations; a missed announcement costs detection latency only.
  }
}

AdminApi::LogHead AdminApi::publish_log_entry(const GroupId& gid, LogOp op,
                                              const std::string& subject) {
  if (!config_.log_operations) return LogHead{};
  // CAS-merge: rebase our entry onto whatever head the cloud holds, so
  // concurrent administrators' entries are merged instead of overwritten
  // (the seed's last-writer-wins put lost them).
  std::optional<LogHead> attempted;
  for (int i = 0; i < max_log_publish_attempts; ++i) {
    std::optional<cloud::CloudStore::Versioned> raw;
    try {
      raw = with_retries([&] { return cloud_.get_versioned(oplog_path(gid)); });
    } catch (const cloud::TransientError&) {
      continue;
    }
    MembershipLog remote;
    std::uint64_t version = 0;
    if (raw) {
      remote = MembershipLog::from_bytes(raw->value);
      version = raw->version;
    }
    if (attempted) {
      // An earlier put_cas erred ambiguously; if our entry is already on the
      // cloud the write landed and we must not append it twice.
      for (const auto& e : remote.entries()) {
        if (e.hash == *attempted) {
          logs_[gid] = std::move(remote);
          return *attempted;
        }
      }
    }
    remote.append(op, subject, config_.admin_name, signing_key_);
    attempted = remote.entries().back().hash;
    auto bytes = remote.to_bytes();
    std::optional<std::uint64_t> result;
    try {
      result = with_retries(
          [&] { return cloud_.put_cas(oplog_path(gid), bytes, version); });
    } catch (const cloud::TransientError&) {
      continue;  // ambiguous: the next fetch resolves whether it applied
    }
    if (result) {
      logs_[gid] = std::move(remote);
      return *attempted;
    }
    ++stats_.cas_conflicts;
  }
  throw std::runtime_error("AdminApi: persistent op-log contention on " + gid);
}

void AdminApi::gc_group(const GroupId& gid, const GroupState& state) {
  std::vector<std::string> live;
  live.reserve(state.shards.size() + state.overlays.size() +
               config_.delta_window + 2);
  for (const auto& sh : state.shards) live.push_back(shard_path(gid, sh.sid));
  live.push_back(cipher_bundle_path(gid, state.cipher_set));
  for (const auto& [pid, oid] : state.overlays) {
    live.push_back(cipher_overlay_path(gid, oid));
  }
  live.push_back(sealed_gk_path(gid, state.gk_epoch));
  if (state.delta_base > 0) {
    for (std::uint64_t seq = state.delta_base; seq <= state.freshness.counter;
         ++seq) {
      live.push_back(delta_path(gid, seq));
    }
  }

  for (const auto& path : list_group(gid)) {
    // Only numbered objects are swept; the manifest and op-log never are.
    if (!parse_object_path(gid, path)) continue;
    if (std::find(live.begin(), live.end(), path) == live.end()) {
      erase_object(path);
    }
  }
}

void AdminApi::bump_counters_past(GroupState& state) const {
  auto bump = [&](std::uint64_t id, std::uint32_t& counter) {
    if (static_cast<std::uint32_t>(id >> 32) != config_.admin_nonce) return;
    auto low = static_cast<std::uint32_t>(id);
    if (low >= counter) counter = low + 1;
  };
  for (const auto& [pid, members] : state.index.partitions()) {
    bump(pid, state.partition_counter);
  }
  for (const auto& sh : state.shards) bump(sh.sid, state.object_counter);
  bump(state.cipher_set, state.object_counter);
  for (const auto& [pid, oid] : state.overlays) bump(oid, state.object_counter);
  bump(state.gk_epoch, state.epoch_counter);
}

void AdminApi::sync_from_cloud(const GroupId& gid) {
  auto raw_index =
      with_retries([&] { return cloud_.get_versioned(index_path(gid)); });
  if (!raw_index) {
    throw cloud::TransientError("sync_from_cloud: no manifest for " + gid);
  }
  GroupManifest manifest =
      adopt(reader_.manifest(std::move(raw_index->value), gid,
                             &enclave_.freshness_verification_key()),
            "manifest");
  // The enclave-signed freshness counter (unlike the cloud-assigned version,
  // it survives an admin restart) BELOW the platform's confirmed floor is a
  // rollback or a badly lagging replica: both heal by re-reading. ABOVE it
  // is legitimate (a peer committed, or we died between CAS and
  // confirmation); the late confirmation below raises the floor to match.
  if (manifest.freshness.counter < enclave_.ecall_freshness_floor(gid)) {
    ++stats_.rollback_rejections;
    throw cloud::TransientError(
        "sync_from_cloud: rolled-back manifest (freshness below enclave floor)");
  }
  auto old = cache_.find(gid);

  GroupState state;
  state.index_version = raw_index->version;
  state.gk_epoch = manifest.gk_epoch;
  state.freshness = manifest.freshness;
  state.cipher_set = manifest.cipher_set;
  state.overlays = manifest.overlays;
  state.delta_base = manifest.delta_base;
  state.delta_hash = manifest.delta_hash;

  for (const auto& ref : manifest.shards) {
    auto raw = with_retries([&] { return cloud_.get(shard_path(gid, ref.sid)); });
    IndexShard rec = adopt(reader_.shard(raw, ref), "shard");
    Shard sh{ref.sid, {}, ref.hash};
    for (auto& [pid, members] : rec.partitions) {
      sh.pids.push_back(pid);
      state.index.add_partition(pid, std::move(members));
    }
    state.shards.push_back(std::move(sh));
  }

  auto raw_bundle = with_retries(
      [&] { return cloud_.get(cipher_bundle_path(gid, manifest.cipher_set)); });
  CipherBundle bundle =
      adopt(reader_.bundle(raw_bundle, manifest), "cipher bundle");
  for (const auto& [pid, oid] : manifest.overlays) {
    auto raw =
        with_retries([&] { return cloud_.get(cipher_overlay_path(gid, oid)); });
    state.ciphers[pid] =
        adopt(reader_.overlay(raw, manifest, pid), "overlay").cipher;
  }
  for (const auto& [pid, members] : state.index.partitions()) {
    if (state.ciphers.count(pid)) continue;  // an overlay supersedes
    const auto* cipher = bundle.find(pid);
    if (!cipher) {
      throw cloud::TransientError("sync_from_cloud: partition cipher missing");
    }
    state.ciphers.emplace(pid, *cipher);
  }

  auto sealed = with_retries(
      [&] { return cloud_.get(sealed_gk_path(gid, manifest.gk_epoch)); });
  if (sealed) {
    try {
      state.sealed_gk = sgx::SealedBlob::from_bytes(*sealed);
    } catch (const util::DeserializeError&) {
      throw util::IntegrityError("sync_from_cloud: sealed gk malformed");
    }
  } else if (old != cache_.end() && old->second.gk_epoch == manifest.gk_epoch) {
    state.sealed_gk = old->second.sealed_gk;  // we sealed this epoch ourselves
  } else {
    throw cloud::TransientError("sync_from_cloud: sealed gk not yet visible");
  }

  // Admin-local fields survive the re-sync. A record whose C1 a peer
  // changed is refused by the enclave and costs one full re-key.
  if (old != cache_.end()) {
    for (auto& [pid, record] : old->second.records) {
      if (state.ciphers.count(pid)) state.records[pid] = std::move(record);
    }
    state.partition_counter = old->second.partition_counter;
    state.epoch_counter = old->second.epoch_counter;
    state.object_counter = old->second.object_counter;
    state.target_partition_size = old->second.target_partition_size;
    state.shard_partition_target = old->second.shard_partition_target;
  } else {
    state.target_partition_size = config_.partition_size;
    state.shard_partition_target =
        config_.shard_partitions
            ? config_.shard_partitions
            : PartitionAdvisor::recommend_shard_partitions(
                  std::max<std::size_t>(state.index.partitions().size(), 1),
                  state.target_partition_size);
  }
  bump_counters_past(state);
  // Late confirmation: if our previous incarnation died between the manifest
  // CAS and its confirmation (or a peer committed on another platform), the
  // platform floor now catches up with the committed counter.
  enclave_.ecall_confirm_freshness(gid, manifest.freshness.counter);
  cache_[gid] = std::move(state);
}

bool AdminApi::recover(const GroupId& gid) {
  ++stats_.recoveries;
  auto raw_index =
      with_retries([&] { return cloud_.get_versioned(index_path(gid)); });
  if (!raw_index) {
    // No commit point ever landed: a creation died mid-flight. Roll it back
    // by deleting every torn file under the group's directory.
    for (const auto& path : list_group(gid)) erase_object(path);
    cache_.erase(gid);
    logs_.erase(gid);
    return false;
  }

  // The manifest committed: adopt that state (rolling an uncommitted
  // mutation back), then finish the sweep a committed mutation may have left
  // undone (roll-forward of its GC).
  with_retries([&] {
    sync_from_cloud(gid);
    return 0;
  });
  GroupState& state = state_of(gid);

  // Advance our id/epoch counters past every leftover on the cloud, not just
  // what the manifest references: if the GC below fails half-way, a reused
  // id could otherwise collide with a stale orphan file. Deltas are absent
  // from this scan on purpose — their names carry the GLOBAL freshness
  // counter, not an admin-spaced id, so there is no local counter to bump.
  for (const auto& path : list_group(gid)) {
    auto name = parse_object_path(gid, path);
    if (!name || name->kind == ObjectName::Kind::delta) continue;
    if (static_cast<std::uint32_t>(name->id >> 32) != config_.admin_nonce) {
      continue;
    }
    auto low = static_cast<std::uint32_t>(name->id);
    auto& counter = name->kind == ObjectName::Kind::sealed_gk
                        ? state.epoch_counter
                        : state.object_counter;
    if (low >= counter) counter = low + 1;
  }

  gc_group(gid, state);

  // Re-announce the committed freshness: a crash between the CAS and the
  // gossip put would otherwise leave the hint channel a commit behind.
  publish_freshness_gossip(gid, state.freshness);

  if (config_.log_operations) {
    try {
      auto raw = with_retries([&] { return cloud_.get(oplog_path(gid)); });
      if (raw) logs_[gid] = MembershipLog::from_bytes(*raw);
    } catch (const cloud::TransientError&) {
      // cache refresh only; the next publish re-fetches anyway
    }
  }
  return true;
}

template <typename Op>
AdminApi::OpOutcome AdminApi::mutate_with_retry(const GroupId& gid, LogOp logop,
                                                const std::string& subject,
                                                Op&& op) {
  auto resync = [&] {
    with_retries([&] {
      sync_from_cloud(gid);
      return 0;
    });
  };
  if (state_of(gid).needs_sync) resync();
  std::optional<LogHead> staged;
  try {
    for (int attempt = 0;; ++attempt) {
      GroupState& state = state_of(gid);
      // A re-run after a CAS conflict restages its delta ops from scratch.
      state.pending_delta.clear();
      OpOutcome outcome = op(state, staged);
      if (outcome == OpOutcome::noop) {
        // Nothing to publish, but an earlier conflicted attempt (or a crashed
        // predecessor) may have left shadow files behind: sweep them.
        gc_group(gid, state);
        return outcome;
      }
      if (!staged) staged = publish_log_entry(gid, logop, subject);
      if (push_index(gid, state, *staged)) {
        gc_group(gid, state);
        return outcome;
      }
      if (attempt >= max_cas_retries) {
        throw std::runtime_error(
            "AdminApi: persistent CAS conflicts on group " + gid);
      }
      resync();
    }
  } catch (const util::CrashError&) {
    // Simulated process death: the caller discards this admin, so no
    // further store calls; the flag covers a caller that does not.
    state_of(gid).needs_sync = true;
    throw;
  } catch (...) {
    // The failed attempt may have staged ops and taken the enclave's output
    // into the cache without committing them: re-read the committed state.
    state_of(gid).needs_sync = true;
    try {
      resync();
    } catch (...) {
      // still flagged: the next mutation re-syncs first
    }
    throw;
  }
}

const MembershipLog& AdminApi::log_of(const GroupId& gid) const {
  static const MembershipLog empty;
  auto it = logs_.find(gid);
  return it == logs_.end() ? empty : it->second;
}

MembershipLog::AuditResult AdminApi::audit_group_log(const GroupId& gid) const {
  // stats_ is not updated here (const audit path): use the bare retry helper.
  auto fetch = [&](const std::string& path) {
    return util::retry_faults(config_.retry, [&] { return cloud_.get(path); });
  };
  auto raw = fetch(oplog_path(gid));
  if (!raw) return {false, "no op-log stored for group", 0};
  MembershipLog log;
  try {
    log = MembershipLog::from_bytes(*raw);
  } catch (const util::DeserializeError&) {
    return {false, "op-log blob corrupted", 0};
  }

  // Anchor on the committed manifest's log head so a rolled-back suffix — a
  // perfectly valid shorter chain — is still caught; check the manifest's
  // freshness counter against the enclave floor so a WHOLESALE rollback of a
  // consistent old manifest+log pair (which the anchor alone cannot see) is
  // caught too. Without a manifest the audit runs unanchored.
  auto index = reader_.manifest(fetch(index_path(gid)), gid,
                                &enclave_.freshness_verification_key());
  if (index.verdict == ReadVerdict::unauthenticated) {
    return {false, "manifest or its freshness attestation not authentic", 0};
  }
  if (index.ok() &&
      index.record.freshness.counter < enclave_.ecall_freshness_floor(gid)) {
    return {false,
            "rolled-back manifest+log pair (freshness below enclave floor)", 0};
  }
  return log.audit(reader_.admin_keys(),
                   index.ok() ? &index.record.log_head : nullptr);
}

void AdminApi::create_group(const GroupId& gid,
                            std::span<const Identity> members) {
  auto it = cache_.find(gid);
  GroupState state =
      stage_generation(gid, it == cache_.end() ? nullptr : &it->second,
                       members, config_.partition_size);
  LogHead head = publish_log_entry(gid, LogOp::create_group,
                                   "members=" + std::to_string(members.size()));
  // pending_delta is empty: the creation commits as a snapshot barrier.
  if (!push_index(gid, state, head)) {
    throw std::runtime_error("create_group: concurrent modification of " + gid);
  }

  stats_.groups_created++;
  GroupState& committed = (cache_[gid] = std::move(state));
  // Post-commit: sweep a re-created group's previous generation and any
  // shadow leftovers.
  gc_group(gid, committed);
}

AdminApi::GroupState AdminApi::stage_generation(
    const GroupId& gid, const GroupState* lineage,
    std::span<const Identity> members, std::size_t partition_size) {
  if (members.empty()) {
    throw std::invalid_argument("create_group: need at least one member");
  }
  GroupState state;
  state.target_partition_size = partition_size;
  if (lineage) {
    // Recreation (re-partitioning) keeps counters and CAS lineage.
    state.partition_counter = lineage->partition_counter;
    state.epoch_counter = lineage->epoch_counter;
    state.object_counter = lineage->object_counter;
    state.index_version = lineage->index_version;
    state.freshness = lineage->freshness;  // floor for the next attestation
  }

  // Algorithm 1, line 1: fixed-size partitions.
  std::vector<std::vector<Identity>> partitions;
  for (std::size_t i = 0; i < members.size(); i += partition_size) {
    auto last = std::min(members.size(), i + partition_size);
    partitions.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(i),
                            members.begin() + static_cast<std::ptrdiff_t>(last));
  }

  // Lines 2-6 run inside the enclave.
  std::vector<PartitionId> pids(partitions.size());
  for (auto& pid : pids) pid = fresh_partition_id(state);
  auto creation = enclave_.ecall_create_group(pids, partitions);

  // Line 7: persist shards, cipher bundle and sealed gk under fresh names,
  // all BEFORE the manifest CAS commits them.
  state.sealed_gk = creation.sealed_gk;
  state.gk_epoch = fresh_gk_epoch(state);
  state.shard_partition_target =
      config_.shard_partitions
          ? config_.shard_partitions
          : PartitionAdvisor::recommend_shard_partitions(partitions.size(),
                                                         partition_size);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const PartitionId pid = pids[p];
    state.ciphers.emplace(pid, std::move(creation.partitions[p]));
    state.records.emplace(pid, std::move(creation.records[p]));
    assign_to_shard(state, pid);
    state.index.add_partition(pid, std::move(partitions[p]));
  }
  for (std::size_t s = 0; s < state.shards.size(); ++s) {
    rewrite_shard(gid, state, s);
  }
  write_bundle(gid, state);
  put_object(sealed_gk_path(gid, state.gk_epoch),
             state.sealed_gk.to_bytes());
  stats_.partitions_created += partitions.size();
  return state;
}

void AdminApi::add_user(const GroupId& gid, const Identity& id) {
  bool created_partition = false;
  auto outcome = mutate_with_retry(
      gid, LogOp::add_user, id,
      [&](GroupState& state, std::optional<LogHead>&) {
        created_partition = false;
        if (state.index.find_user(id)) return OpOutcome::noop;

        // Algorithm 2, line 1: partitions with spare capacity.
        std::vector<PartitionId> open;
        for (const auto& [pid, members] : state.index.partitions()) {
          if (members.size() < state.target_partition_size) open.push_back(pid);
        }

        PartitionId pid;
        std::size_t shard;
        if (open.empty()) {
          // Lines 3-7: new partition wrapping the existing gk.
          pid = fresh_partition_id(state);
          store(state, pid,
                enclave_.ecall_create_partition(pid, std::span(&id, 1),
                                                state.sealed_gk));
          shard = assign_to_shard(state, pid);
          created_partition = true;
        } else {
          // Lines 9-12: random open partition; O(1) ciphertext extension and
          // a fresh k, so the joiner's bk never wrapped an earlier gk. The
          // partition keeps its stable id — immutability lives in the
          // shard/overlay objects rewritten below.
          pid = open[rng_.uniform(open.size())];
          store(state, pid,
                enclave_.ecall_add_user_to_partition(handle(state, pid), id,
                                                     state.sealed_gk));
          shard = shard_index_of(state, pid);
        }
        stage_op(state,
                 {.kind = DeltaOp::Kind::add_member, .user = id, .pid = pid});

        // O(1) objects regardless of group size: one overlay, one shard, the
        // delta + op-log entry + manifest that push_index publishes.
        write_overlay(gid, state, pid);
        rewrite_shard(gid, state, shard);
        return OpOutcome::published;
      });

  if (outcome == OpOutcome::noop) return;
  stats_.users_added++;
  if (created_partition) stats_.partitions_created++;
  advisor_.record_add();
}

void AdminApi::remove_user(const GroupId& gid, const Identity& id) {
  remove_members(gid, std::span(&id, 1), /*log_as_batch=*/false);
}

void AdminApi::add_users(const GroupId& gid, std::span<const Identity> ids) {
  for (const auto& id : ids) add_user(gid, id);
}

void AdminApi::remove_users(const GroupId& gid, std::span<const Identity> ids) {
  remove_members(gid, ids, /*log_as_batch=*/true);
}

void AdminApi::remove_members(const GroupId& gid, std::span<const Identity> ids,
                              bool log_as_batch) {
  std::size_t removed_count = 0;
  // The lambda rewrites this before mutate_with_retry publishes the entry.
  std::string subject;
  auto outcome = mutate_with_retry(
      gid, LogOp::remove_user, subject,
      [&](GroupState& state, std::optional<LogHead>& staged) {
        removed_count = 0;
        // Algorithm 3, line 1: group the batch by hosting partition (O(1)
        // lookups); silently skip non-members and repeated ids.
        std::map<PartitionId, std::vector<Identity>> by_partition;
        for (const auto& id : ids) {
          auto pid = state.index.find_user(id);
          if (!pid) continue;
          auto& leavers = by_partition[*pid];
          if (std::find(leavers.begin(), leavers.end(), id) == leavers.end()) {
            leavers.push_back(id);
          }
        }
        if (by_partition.empty()) return OpOutcome::noop;

        std::vector<enclave::IbbeEnclave::BatchRemovalSpec> hosts;
        std::vector<PartitionId> host_pids;
        std::vector<enclave::IbbeEnclave::PartitionHandle> others;
        std::vector<PartitionId> other_pids;
        for (const auto& [pid, members] : state.index.partitions()) {
          auto it = by_partition.find(pid);
          if (it != by_partition.end()) {
            hosts.push_back({handle(state, pid), it->second});
            host_pids.push_back(pid);
          } else {
            others.push_back(handle(state, pid));
            other_pids.push_back(pid);
          }
        }

        // Lines 3-9 run inside the enclave: removal and a fresh k on every
        // host, and the fresh gk wrapped under every other partition's
        // unchanged key.
        auto result = enclave_.ecall_remove_users(hosts, others);
        state.sealed_gk = result.sealed_gk;
        state.gk_epoch = fresh_gk_epoch(state);

        // Enclave output order: hosts first, then the others. Track which
        // shards lose members; sids are stable until the final rewrite, so
        // they key the dirty set safely across the erasures below (an
        // erased shard's sid just matches nothing).
        std::vector<std::uint64_t> dirty_sids;
        for (std::size_t h = 0; h < host_pids.size(); ++h) {
          const PartitionId pid = host_pids[h];
          store(state, pid, {std::move(result.partitions[h]),
                             std::move(result.records[h])});
          const std::size_t s = shard_index_of(state, pid);
          if (std::find(dirty_sids.begin(), dirty_sids.end(),
                        state.shards[s].sid) == dirty_sids.end()) {
            dirty_sids.push_back(state.shards[s].sid);
          }
          for (const auto& id : by_partition[pid]) {
            stage_op(state, {.kind = DeltaOp::Kind::remove_member,
                             .user = id,
                             .pid = pid});
          }
          removed_count += by_partition[pid].size();
          if (state.index.members_of(pid)) continue;
          // The index dropped the emptied partition; its cipher and shard
          // entry go with it (and an emptied shard drops out of the
          // manifest — the old file is swept by the post-commit GC).
          state.ciphers.erase(pid);
          state.records.erase(pid);
          auto& pids = state.shards[s].pids;
          pids.erase(std::find(pids.begin(), pids.end(), pid));
          if (pids.empty()) {
            state.shards.erase(state.shards.begin() +
                               static_cast<std::ptrdiff_t>(s));
          }
        }
        for (std::size_t o = 0; o < other_pids.size(); ++o) {
          const std::size_t i = hosts.size() + o;
          store(state, other_pids[o], {std::move(result.partitions[i]),
                                       std::move(result.records[i])});
        }

        subject = log_as_batch ? "batch=" + std::to_string(removed_count)
                               : ids.front();
        // The global §V-A heuristic first (a full rebuild subsumes any
        // shard-local one), then the same rule scoped to each dirty shard.
        // One walk over the index: no per-partition lookup.
        if (mostly_sparse(state.target_partition_size,
                          state.index.partitions() |
                              std::views::transform([](const auto& part) {
                                return part.second.size();
                              }))) {
          // The rebuild's repartition entry must follow ours on the cloud,
          // and the manifest pins the newer one. A re-run after a lost CAS
          // keeps our entry and logs its own generation's rebuild again.
          if (!staged) {
            staged = publish_log_entry(gid, LogOp::remove_user, subject);
          }
          const std::size_t size = rebuild_group(gid, state);
          staged = publish_log_entry(gid, LogOp::repartition,
                                     "partition_size=" + std::to_string(size));
          return OpOutcome::published;
        }
        for (std::size_t s = 0; s < state.shards.size(); ++s) {
          if (std::find(dirty_sids.begin(), dirty_sids.end(),
                        state.shards[s].sid) == dirty_sids.end()) {
            continue;
          }
          if (mostly_sparse(state.target_partition_size,
                            state.shards[s].pids |
                                std::views::transform([&](PartitionId pid) {
                                  return members_of(state.index, pid).size();
                                }))) {
            repartition_shard(state, s);
          }
          rewrite_shard(gid, state, s);
        }
        // Every partition's y_p changed (the hosts' C1-C3 too), but they
        // travel as ONE rotated bundle: the revocation stays O(1) uploaded
        // objects.
        write_bundle(gid, state);
        put_object(sealed_gk_path(gid, state.gk_epoch),
                   state.sealed_gk.to_bytes());
        return OpOutcome::published;
      });

  if (outcome == OpOutcome::noop) return;
  stats_.users_removed += removed_count;
  for (std::size_t i = 0; i < removed_count; ++i) advisor_.record_remove();
}

enclave::IbbeEnclave::PartitionHandle AdminApi::handle(const GroupState& state,
                                                      PartitionId pid) {
  auto record = state.records.find(pid);
  return {pid, state.ciphers.at(pid).ct,
          record == state.records.end() ? util::Bytes{} : record->second};
}

void AdminApi::store(GroupState& state, PartitionId pid,
                     enclave::IbbeEnclave::PartitionUpdate update) {
  state.ciphers[pid] = std::move(update.cipher);
  if (!update.record.empty()) state.records[pid] = std::move(update.record);
}

void AdminApi::stage_op(GroupState& state, DeltaOp op) {
  if (!state.index.apply_op(op)) {
    throw std::logic_error("AdminApi: delta op inconsistent with the index");
  }
  state.pending_delta.push_back(std::move(op));
}

void AdminApi::repartition_shard(GroupState& state, std::size_t shard) {
  Shard& sh = state.shards[shard];
  DeltaOp op;
  op.kind = DeltaOp::Kind::repartition;
  op.dropped = sh.pids;

  std::vector<Identity> pool;
  for (PartitionId pid : sh.pids) {
    const auto& members = members_of(state.index, pid);
    pool.insert(pool.end(), members.begin(), members.end());
    state.ciphers.erase(pid);
    state.records.erase(pid);
  }
  sh.pids.clear();

  const std::size_t m = std::max<std::size_t>(state.target_partition_size, 1);
  for (std::size_t i = 0; i < pool.size(); i += m) {
    auto last = std::min(pool.size(), i + m);
    const PartitionId pid = fresh_partition_id(state);
    std::vector<Identity> members(
        pool.begin() + static_cast<std::ptrdiff_t>(i),
        pool.begin() + static_cast<std::ptrdiff_t>(last));
    // Wraps the CURRENT (post-rotation) gk — the caller writes the bundle
    // after this, so the new ciphertexts ride the same O(1) object.
    store(state, pid,
          enclave_.ecall_create_partition(pid, members, state.sealed_gk));
    sh.pids.push_back(pid);
    op.created.emplace_back(pid, std::move(members));
    stats_.partitions_created++;
  }
  stats_.shard_repartitions++;
  stage_op(state, std::move(op));
}

std::size_t AdminApi::rebuild_group(const GroupId& gid, GroupState& state) {
  std::vector<Identity> all;
  for (const auto& [pid, members] : state.index.partitions()) {
    all.insert(all.end(), members.begin(), members.end());
  }
  stats_.repartitions++;

  std::size_t new_size = state.target_partition_size;
  if (config_.adaptive_partitioning) {
    new_size = advisor_.recommend(all.size(), config_.min_partition_size,
                                  enclave_.public_key().max_receivers());
    advisor_.reset_window();
  }
  state = stage_generation(gid, &state, all, new_size);
  return new_size;
}

bool AdminApi::is_member(const GroupId& gid, const Identity& id) const {
  auto it = cache_.find(gid);
  if (it == cache_.end()) return false;
  return it->second.index.find_user(id).has_value();
}

std::size_t AdminApi::group_size(const GroupId& gid) const {
  return state_of(gid).index.member_count();
}

std::size_t AdminApi::partition_count(const GroupId& gid) const {
  return state_of(gid).index.partitions().size();
}

std::size_t AdminApi::shard_count(const GroupId& gid) const {
  return state_of(gid).shards.size();
}

std::size_t AdminApi::partition_size_target(const GroupId& gid) const {
  return state_of(gid).target_partition_size;
}

std::size_t AdminApi::cloud_object_count(const GroupId& gid) const {
  const GroupState& state = state_of(gid);
  std::size_t n = 2;  // manifest + sealed gk
  n += state.shards.size();
  n += 1;  // cipher bundle
  n += state.overlays.size();
  if (state.delta_base > 0 && state.freshness.counter >= state.delta_base) {
    n += state.freshness.counter - state.delta_base + 1;
  }
  if (config_.log_operations) n += 1;
  return n;
}

std::size_t AdminApi::metadata_size(const GroupId& gid) const {
  const GroupState& state = state_of(gid);
  std::size_t total = 0;
  for (const auto& sh : state.shards) {
    IndexShard rec;
    rec.sid = sh.sid;
    for (PartitionId pid : sh.pids) {
      rec.partitions.emplace_back(pid, members_of(state.index, pid));
    }
    total += rec.to_bytes().size() + SignedEnvelope::stored_overhead;
  }
  CipherBundle bundle;
  for (const auto& [pid, members] : state.index.partitions()) {
    bundle.entries.emplace_back(pid, state.ciphers.at(pid));
  }
  total += bundle.to_bytes().size() + SignedEnvelope::stored_overhead;
  for (const auto& [pid, oid] : state.overlays) {
    CipherOverlay overlay{pid, state.gk_epoch, state.ciphers.at(pid)};
    total += overlay.to_bytes().size() + SignedEnvelope::stored_overhead;
  }
  total +=
      build_manifest(state).to_bytes().size() + SignedEnvelope::stored_overhead;
  total += state.sealed_gk.to_bytes().size();  // gk<epoch>.sealed
  // Retained deltas are not mirrored in memory; size the live window off the
  // cloud (const path: bare retry helper, stats untouched).
  if (state.delta_base > 0) {
    for (std::uint64_t seq = state.delta_base; seq <= state.freshness.counter;
         ++seq) {
      auto raw = util::retry_faults(
          config_.retry, [&] { return cloud_.get(delta_path(gid, seq)); });
      if (raw) total += raw->size();
    }
  }
  return total;
}

}  // namespace ibbe::system

#include "system/client.h"

#include <thread>

#include "crypto/gcm.h"

namespace ibbe::system {

ClientApi::ClientApi(cloud::CloudStore& cloud, core::PublicKey pk,
                     core::UserSecretKey usk,
                     ec::P256Point admin_verification_key)
    : ClientApi(cloud, std::move(pk), std::move(usk),
                std::vector<ec::P256Point>{admin_verification_key}) {}

ClientApi::ClientApi(cloud::CloudStore& cloud, core::PublicKey pk,
                     core::UserSecretKey usk,
                     std::vector<ec::P256Point> admin_keys)
    : cloud_(cloud),
      pk_(std::move(pk)),
      usk_(std::move(usk)),
      reader_(std::move(admin_keys)) {}

bool ClientApi::verify_credentials() const {
  return core::verify_user_key(pk_, usk_);
}

std::optional<util::Bytes> ClientApi::last_key(const GroupId& gid) const {
  auto it = last_verified_key_.find(gid);
  if (it == last_verified_key_.end()) return std::nullopt;
  return it->second;
}

std::optional<util::Bytes> ClientApi::get_object(const std::string& path) {
  try {
    return with_retries([&] { return cloud_.get(path); });
  } catch (const cloud::TransientError&) {
    return std::nullopt;  // retries exhausted: as torn as an absent object
  }
}

bool ClientApi::usable(ReadVerdict verdict) {
  if (verdict == ReadVerdict::unauthenticated) ++stats_.signature_failures;
  return verdict == ReadVerdict::ok;
}

void ClientApi::invalidate_caches(const GroupId& gid) {
  cache_.erase(gid);
  cipher_cache_.erase(gid);
  prepared_.erase(gid);
}

std::vector<FreshnessObservation> ClientApi::read_gossip(
    const GroupId& gid) const {
  std::vector<FreshnessObservation> out;
  try {
    for (const auto& path : cloud_.list(gossip_dir(gid))) {
      auto raw = cloud_.get(path);
      if (!raw) continue;
      try {
        out.push_back(FreshnessObservation::from_bytes(*raw));
      } catch (const util::DeserializeError&) {
        // A malformed hint carries no information either way; ignore it.
      }
    }
  } catch (const cloud::TransientError&) {
    // Gossip is best-effort: an unreachable channel just means no hints.
  }
  return out;
}

void ClientApi::publish_gossip(const GroupId& gid,
                               const enclave::FreshnessToken& tok) {
  if (gossip_id_.empty()) return;
  FreshnessObservation obs;
  obs.counter = tok.counter;
  obs.log_head = tok.log_head;
  try {
    (void)cloud_.put(gossip_path(gid, "client-" + gossip_id_), obs.to_bytes());
  } catch (const util::FaultError&) {
    // Best-effort: a dropped observation only delays detection. Any injected
    // fault kind on this hint write is survivable — the client keeps its own
    // high-water mark regardless.
  }
}

void ClientApi::note_fresh_view(const GroupId& gid,
                                const enclave::FreshnessToken& tok) {
  if (!freshness_key_ || tok.counter == 0) return;
  auto& hwm = freshness_hwm_[gid];
  if (tok.counter > hwm.counter) {
    hwm.counter = tok.counter;
    hwm.log_head = tok.log_head;
    publish_gossip(gid, tok);
  }
}

ClientApi::Fetch ClientApi::check_freshness(const GroupId& gid,
                                            const GroupManifest& m,
                                            bool& fresh_rejected) {
  const auto& tok = m.freshness;
  auto hwm = freshness_hwm_.find(gid);
  if (hwm != freshness_hwm_.end() && tok.counter < hwm->second.counter) {
    // We have already verified a newer commit: this view is rolled back.
    ++stats_.freshness_rejections;
    fresh_rejected = true;
    return Fetch::degraded;
  }
  if (hwm != freshness_hwm_.end() && tok.counter == hwm->second.counter &&
      tok.log_head != hwm->second.log_head) {
    // Same counter, different history: divergence. The refused token is
    // enclave-signed, so it is publishable PROOF — announce it so the
    // clients on the fork's other side detect within their next round.
    publish_gossip(gid, tok);
    return Fetch::forked;
  }
  if (!gossip_id_.empty()) {
    ++stats_.gossip_rounds;
    for (const auto& obs : read_gossip(gid)) {
      if (obs.counter > tok.counter) {
        // Someone verified a commit the cloud is hiding from us.
        ++stats_.freshness_rejections;
        fresh_rejected = true;
        return Fetch::degraded;
      }
      if (obs.counter == tok.counter && obs.log_head != tok.log_head) {
        publish_gossip(gid, tok);  // same proof-of-divergence announcement
        return Fetch::forked;
      }
    }
  }
  return Fetch::ok;
}

bool ClientApi::fold_deltas(const GroupId& gid, const GroupManifest& m,
                            CachedIndex& view) {
  // Check the whole hash chain before folding anything: d<counter+1> must
  // name the view's own delta_hash, each later delta its predecessor's
  // stored hash, and the newest must hash to the signed manifest's
  // delta_hash — so that one signature authenticates every delta folded.
  std::vector<IndexDelta> chain;
  Hash32 link = view.delta_hash;
  for (std::uint64_t seq = view.counter + 1; seq <= m.freshness.counter;
       ++seq) {
    auto raw = get_object(delta_path(gid, seq));
    if (!raw) return false;  // window raced the GC, or the replica is torn
    try {
      chain.push_back(IndexDelta::from_bytes(*raw));
    } catch (const util::DeserializeError&) {
      return false;
    }
    // Not the successor of what we hold: a torn replica, or a racing or
    // Byzantine writer clobbered a committed name.
    if (chain.back().prev_delta_hash != link) return false;
    link = content_hash(*raw);
  }
  if (link != m.delta_hash) return false;
  for (const auto& delta : chain) {
    // apply() enforces seq == counter+1 and the log-head chain, and rejects
    // structurally inconsistent ops.
    if (!view.apply(delta)) return false;
    ++stats_.delta_folds;
  }
  // The log-head chain must land on the committed head as well.
  if (view.counter != m.freshness.counter || view.log_head != m.log_head) {
    return false;
  }
  view.gk_epoch = m.gk_epoch;
  view.delta_hash = m.delta_hash;
  return true;
}

bool ClientApi::load_snapshot(const GroupId& gid, const GroupManifest& m,
                              CachedIndex& view) {
  for (const auto& ref : m.shards) {
    // The commit protocol pushes shards before the manifest references
    // them, so an absent or stale shard means a torn view (lagging replica,
    // or a snapshot overlapping the garbage collector) — not proof of
    // anything; re-fetch until the replica converges.
    auto read = reader_.shard(get_object(shard_path(gid, ref.sid)), ref);
    if (!usable(read.verdict)) return false;
    for (auto& [pid, members] : read.record.partitions) {
      view.add_partition(pid, std::move(members));
    }
  }
  view.counter = m.freshness.counter;
  view.log_head = m.log_head;
  view.gk_epoch = m.gk_epoch;
  view.delta_hash = m.delta_hash;
  return true;
}

CachedIndex* ClientApi::refresh_view(const GroupId& gid,
                                     const GroupManifest& m) {
  auto it = cache_.find(gid);
  if (it != cache_.end()) {
    CachedIndex& view = it->second;
    if (view.counter == m.freshness.counter && view.log_head == m.log_head &&
        view.gk_epoch == m.gk_epoch && view.delta_hash == m.delta_hash) {
      return &view;  // warm: same commit, zero index bytes downloaded
    }
    // Fold only when every missing commit's delta is still retained
    // (cache at counter c needs d<c+1>..d<counter>, so c+1 >= delta_base).
    if (view.counter < m.freshness.counter && m.delta_base > 0 &&
        view.counter + 1 >= m.delta_base && fold_deltas(gid, m, view)) {
      return &view;
    }
    // Gap, broken hash or log-head chain, or clobbered delta: discard the
    // cache and take the snapshot path. Safe — just slower.
    ++stats_.fold_fallbacks;
    cache_.erase(it);
  }
  CachedIndex view;
  if (!load_snapshot(gid, m, view)) return nullptr;
  return &(cache_[gid] = std::move(view));
}

const enclave::PartitionCiphertext* ClientApi::get_cipher(
    const GroupId& gid, const GroupManifest& m, PartitionId pid) {
  CipherCache& cc = cipher_cache_[gid];
  auto overlay_ref = m.overlays.find(pid);
  if (overlay_ref != m.overlays.end()) {
    const std::string path = cipher_overlay_path(gid, overlay_ref->second);
    if (auto it = cc.overlays.find(path); it != cc.overlays.end()) {
      return &it->second;
    }
    auto read = reader_.overlay(get_object(path), m, pid);
    if (!usable(read.verdict)) return nullptr;
    return &cc.overlays.emplace(path, std::move(read.record.cipher))
                .first->second;
  }
  const std::string path = cipher_bundle_path(gid, m.cipher_set);
  if (cc.bundle_path != path || cc.pid != pid) {
    auto read = reader_.bundle_entry(get_object(path), m, pid);
    if (!usable(read.verdict)) return nullptr;
    // A fresh bundle means a rotation: every previous-epoch overlay is
    // superseded, so their cache entries can only go stale from here.
    if (cc.bundle_path != path) cc.overlays.clear();
    cc.bundle_path = path;
    cc.pid = pid;
    cc.entry = std::move(read.record);
  }
  return &cc.entry;
}

const core::PreparedPartition* ClientApi::get_prepared(
    const GroupId& gid, PartitionId pid,
    const std::vector<core::Identity>& members) {
  PreparedCache& pc = prepared_[gid];
  if (!pc.part || pc.pid != pid || pc.members != members) {
    ++stats_.prepares;
    pc.part = core::PreparedPartition::prepare(pk_, usk_, members);
    pc.pid = pid;
    pc.members = members;
  }
  return pc.part ? &*pc.part : nullptr;
}

ClientApi::Fetch ClientApi::fetch_once(const GroupId& gid, util::Bytes& key,
                                       bool& fresh_rejected) {
  auto raw_index =
      with_retries([&] { return cloud_.get_versioned(index_path(gid)); });
  if (!raw_index) return Fetch::not_member;  // no such group (for us)
  // Version monotonicity rejects benign replica lag. With freshness enabled
  // the ENCLAVE-SIGNED counter subsumes it (cloud-assigned versions are
  // unauthenticated — a Byzantine store forges them freely), so the token
  // check below decides instead and the verdict says *rollback*, not just
  // *degraded*.
  auto floor = index_floor_.find(gid);
  if (!freshness_key_ && floor != index_floor_.end() &&
      raw_index->version < floor->second) {
    ++stats_.stale_reads_rejected;
    return Fetch::degraded;
  }
  // With freshness enabled the reader also checks the token's enclave
  // signature and its binding to (gk_epoch, log_head): an unattested,
  // forged or mis-bound token is as unauthenticated as a bad signature.
  auto read = reader_.manifest(std::move(raw_index->value), gid,
                               freshness_key_ ? &*freshness_key_ : nullptr);
  if (!usable(read.verdict)) return Fetch::degraded;
  const GroupManifest& manifest = read.record;
  if (freshness_key_) {
    auto verdict = check_freshness(gid, manifest, fresh_rejected);
    if (verdict != Fetch::ok) return verdict;
  }
  // Only an authenticated (and fresh, when enabled) manifest raises the
  // floor.
  index_floor_[gid] = raw_index->version;

  CachedIndex* view = refresh_view(gid, manifest);
  if (!view) return Fetch::degraded;

  auto slot = view->find_user(usk_.id);
  if (!slot) {
    // A fresh consistent view proves non-membership — still worth anchoring
    // and announcing before reporting it.
    note_fresh_view(gid, manifest.freshness);
    return Fetch::not_member;  // not a member (possibly revoked)
  }

  const auto* cipher = get_cipher(gid, manifest, *slot);
  if (!cipher) return Fetch::degraded;
  const auto* members = view->members_of(*slot);
  if (!members) return Fetch::degraded;  // cannot happen on a consistent view

  // Exactly core::decrypt(pk_, usk_, *members, cipher->ct), with the
  // prepare step reused while the member list stays the same.
  const auto* part = get_prepared(gid, *slot, *members);
  if (!part) {
    invalidate_caches(gid);  // a list over the PK bound: no consistent view
    return Fetch::degraded;
  }
  ++stats_.decryptions;
  crypto::Aes256Gcm gcm(core::decrypt(*part, cipher->ct).hash());
  auto gk = gcm.open(cipher->nonce, cipher->wrapped_gk);
  if (!gk) {
    // The index lists us but the ciphertext excludes us: a cross-file torn
    // snapshot. Drop the caches so the retry rebuilds from scratch — a
    // consistent view will tell us which side is true.
    invalidate_caches(gid);
    return Fetch::degraded;
  }
  note_fresh_view(gid, manifest.freshness);
  key = std::move(*gk);
  return Fetch::ok;
}

ClientApi::FetchResult ClientApi::fetch(const GroupId& gid) {
  ++stats_.fetches;
  if (forked_.count(gid) != 0) {
    // Divergence was proven earlier; the server's history cannot un-fork.
    return {FetchStatus::forked, last_key(gid)};
  }
  // Record the directory version *before* reading so that a concurrent
  // update triggers the next wait_for_update rather than being missed.
  try {
    seen_versions_[gid] =
        with_retries([&] { return cloud_.dir_version(group_dir(gid)); });
  } catch (const cloud::TransientError&) {
    return {FetchStatus::unavailable, std::nullopt};
  }

  bool fresh_rejected = false;
  for (int attempt = 0;; ++attempt) {
    util::Bytes key;
    switch (fetch_once(gid, key, fresh_rejected)) {
      case Fetch::ok:
        last_verified_key_[gid] = key;
        return {FetchStatus::ok, std::move(key)};
      case Fetch::not_member:
        return {FetchStatus::not_member, std::nullopt};
      case Fetch::forked:
        ++stats_.forks_detected;
        forked_.insert(gid);
        return {FetchStatus::forked, last_key(gid)};
      case Fetch::degraded:
        if (attempt + 1 >= retry_.max_attempts) {
          // Freshness rejections mean every view offered was OLD — that is a
          // rollback verdict, not mere unavailability, and the last verified
          // key stays usable read-only.
          if (fresh_rejected) return {FetchStatus::stale, last_key(gid)};
          return {FetchStatus::unavailable, std::nullopt};
        }
        ++stats_.degraded_refetches;
        std::this_thread::sleep_for(retry_.delay(attempt));
        break;
    }
  }
}

std::optional<util::Bytes> ClientApi::fetch_group_key(const GroupId& gid) {
  auto result = fetch(gid);
  if (result.status == FetchStatus::ok) return std::move(result.key);
  return std::nullopt;
}

std::optional<util::Bytes> ClientApi::wait_for_update(
    const GroupId& gid, std::chrono::milliseconds timeout) {
  std::uint64_t cursor = seen_versions_[gid];
  // The manifest version this client last authenticated. The commit protocol
  // pushes shadow shards / deltas / sealed gk / op-log entries BEFORE the
  // manifest CAS, and every one of those bumps the directory version — so a
  // directory wake alone does not mean the membership view changed yet. Only
  // the committed manifest moving past what we last saw ends the wait.
  auto floor = index_floor_.find(gid);
  const std::uint64_t index_since =
      floor == index_floor_.end() ? 0 : floor->second;
  const bool gossiping = freshness_key_.has_value() && !gossip_id_.empty();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining <= std::chrono::milliseconds::zero()) return std::nullopt;
    if (gossiping) {
      // A rolled-back replica sits silent forever — its directory version
      // never moves — so the poll alone cannot end the wait. Peers' gossip
      // can: an observation past (or diverging from) our high-water mark
      // means committed state we are not being shown. Re-fetch; the
      // freshness checks turn it into ok / stale / forked.
      auto hwm = freshness_hwm_.find(gid);
      const std::uint64_t have_counter =
          hwm == freshness_hwm_.end() ? 0 : hwm->second.counter;
      ++stats_.gossip_rounds;
      for (const auto& obs : read_gossip(gid)) {
        if (obs.counter > have_counter ||
            (hwm != freshness_hwm_.end() && obs.counter == have_counter &&
             obs.log_head != hwm->second.log_head)) {
          return fetch_group_key(gid);
        }
      }
      // Bound the poll so gossip is re-checked even if the (possibly lying)
      // store never wakes us.
      remaining = std::min(remaining, std::chrono::milliseconds(25));
    }
    bool committed = false;
    try {
      auto version = cloud_.long_poll(group_dir(gid), cursor, remaining);
      if (!version) {
        // nullopt may be a spurious timeout: if the directory did move, the
        // wake-up was dropped, not absent.
        auto dir_now = cloud_.dir_version(group_dir(gid));
        if (dir_now <= cursor) continue;  // genuine timeout; deadline loop exits
        version = dir_now;
      }
      committed = index_since == 0 ||
                  cloud_.file_version(index_path(gid)) != index_since;
      cursor = *version;  // don't re-wake on the writes we just observed
    } catch (const cloud::TransientError&) {
      // Re-arm with whatever budget is left. The cursor only advances once
      // the checks succeed, so the next round re-checks this wake instead
      // of sleeping through a commit it never looked at.
      ++stats_.transient_retries;
      continue;
    }
    if (committed) return fetch_group_key(gid);
    // Pre-commit shadow traffic, or the GC tail of an update we already
    // fetched: keep watching with the rest of the budget.
  }
}

}  // namespace ibbe::system

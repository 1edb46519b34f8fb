// Byzantine-cloud tests: MaliciousStore adversary schedules, enclave-anchored
// freshness, cipher-object substitution, and client-side fork detection.
//
// Four layers:
//   1. unit tests for cloud::MaliciousStore (replayable attack schedules,
//      per-view forking, generation pinning) and the enclave freshness
//      counter protocol (attest / confirm / floor);
//   2. single-attack system tests: every adversary schedule the store can
//      mount — wholesale rollback, tail withholding, selective equivocation
//      — is DETECTED (`stale` / `forked` / failed anchored audit) or
//      harmless; a client never silently accepts unverified state and
//      degrades to its last VERIFIED key read-only; a signed cipher object
//      served under another partition's or key epoch's live name is refused
//      by clients and re-syncing administrators alike;
//   3. the fork construction: two admins race one index CAS so two
//      enclave-attested tokens share a counter with divergent log heads; the
//      cloud serves one to each client, and gossip makes both clients detect
//      the fork within one poll round;
//   4. the full Byzantine scheme (malice + fail-stop faults + crash
//      recovery) held to the same membership/key invariants as a fault-free
//      deployment, plus the splice-across-fork audit regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/fault.h"
#include "cloud/store.h"
#include "system/admin.h"
#include "system/client.h"
#include "system/ibbe_scheme.h"
#include "system/oplog.h"
#include "test_util.h"
#include "util/retry.h"

namespace {

using ibbe::cloud::CloudStore;
using ibbe::cloud::FaultInjectingStore;
using ibbe::cloud::FaultPlan;
using ibbe::cloud::MaliciousPlan;
using ibbe::cloud::MaliciousStore;
using ibbe::cloud::TransientError;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::ClientApi;
using ibbe::system::GroupId;
using ibbe::system::LogOp;
using ibbe::system::MembershipLog;
using ibbe::util::Bytes;
using ibbe::util::RetryPolicy;
using FetchStatus = ClientApi::FetchStatus;
using ibbe::testutil::make_users;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

// ----------------------------------------------------------- MaliciousStore

TEST(MaliciousStore, SameSeedReplaysIdenticalAttackTrace) {
  auto run = [](std::uint64_t seed) {
    CloudStore inner;
    MaliciousPlan plan;
    plan.seed = seed;
    plan.rollback_rate = 0.25;
    plan.withhold_rate = 0.2;
    plan.equivocate_rate = 0.15;
    plan.max_window = 3;
    MaliciousStore mal(inner, plan);
    // Six committed generations (every index write auto-captures).
    for (int i = 0; i < 6; ++i) {
      mal.put("groups/g/oplog", bytes_of("log" + std::to_string(i)));
      mal.put("groups/g/index", bytes_of("idx" + std::to_string(i)));
    }
    std::string trace;
    for (int i = 0; i < 48; ++i) {
      auto idx = mal.get("groups/g/index");
      auto log = mal.get("groups/g/oplog");
      trace += idx ? str_of(*idx) : "-";
      trace += '/';
      trace += log ? str_of(*log) : "-";
      trace += ';';
    }
    auto stats = mal.malicious_stats();
    return std::make_pair(trace, stats.total_attacks());
  };
  auto [first, attacks] = run(5);
  EXPECT_GT(attacks, 0u) << "schedule mounted no attacks at these rates";
  EXPECT_NE(first.find("idx5/log5"), std::string::npos) << "never served live";
  EXPECT_EQ(first, run(5).first);  // bit-for-bit replay from the seed
  EXPECT_NE(first, run(6).first);  // a different seed diverges
}

TEST(MaliciousStore, RollbackWindowServesOneConsistentOldGeneration) {
  CloudStore inner;
  MaliciousPlan plan;
  plan.rollback_rate = 1.0;  // every targeted read opens/continues a window
  plan.min_window = 2;
  plan.max_window = 2;
  MaliciousStore mal(inner, plan);
  mal.put("groups/g/index", bytes_of("old"));
  mal.put("groups/g/index", bytes_of("new"));
  // Only generation 0 predates the live state, so any rollback serves "old"
  // — and within one window the view must be CONSISTENT, not re-rolled.
  auto first = mal.get("groups/g/index");
  ASSERT_TRUE(first.has_value());
  std::string served = str_of(*first);
  EXPECT_TRUE(served == "old" || served == "new");
  EXPECT_GT(mal.malicious_stats().rollback_windows, 0u);
  // Untargeted paths are never touched by the schedule.
  mal.put("gossip/g/client-x", bytes_of("hint"));
  EXPECT_EQ(mal.get("gossip/g/client-x"), bytes_of("hint"));
}

TEST(MaliciousStore, ForkedViewsSeeDivergentGenerationsWritesStayLive) {
  CloudStore inner;
  MaliciousStore mal(inner, MaliciousPlan{});  // no random schedule
  mal.put("groups/g/index", bytes_of("g0"));
  mal.put("groups/g/index", bytes_of("g1"));
  ASSERT_EQ(mal.generation_count(), 2u);

  auto& view_x = mal.view("x");
  auto& view_y = mal.view("y");
  mal.pin_view("x", 0);
  mal.pin_view("y", 1);
  EXPECT_EQ(view_x.get("groups/g/index"), bytes_of("g0"));
  EXPECT_EQ(view_y.get("groups/g/index"), bytes_of("g1"));
  EXPECT_EQ(mal.get("groups/g/index"), bytes_of("g1"));  // default: live

  // Writes through a pinned view still reach the one true store.
  (void)view_x.put("groups/g/aux", bytes_of("from-x"));
  EXPECT_EQ(inner.get("groups/g/aux"), bytes_of("from-x"));
  // ...and a pinned view keeps serving its old world regardless.
  EXPECT_EQ(view_x.get("groups/g/index"), bytes_of("g0"));
  mal.unpin_view("x");
  EXPECT_EQ(view_x.get("groups/g/index"), bytes_of("g1"));

  // The gossip namespace stays shared and live even for pinned views.
  mal.pin_view("x", 0);
  (void)view_y.put("gossip/g/client-y", bytes_of("obs"));
  EXPECT_EQ(view_x.get("gossip/g/client-y"), bytes_of("obs"));
}

TEST(MaliciousStore, RecordsLosingCasPayloadsAsEquivocationMaterial) {
  CloudStore inner;
  MaliciousStore mal(inner, MaliciousPlan{});
  auto v1 = mal.put("groups/g/index", bytes_of("committed"));
  EXPECT_EQ(mal.put_cas("groups/g/index", bytes_of("loser"), v1 + 7),
            std::nullopt);
  auto rejected = mal.rejected_writes("groups/g/index");
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], bytes_of("loser"));
  EXPECT_EQ(mal.get("groups/g/index"), bytes_of("committed"));
  EXPECT_EQ(mal.malicious_stats().rejected_writes, 1u);
}

// ------------------------------------------------- enclave freshness counters

TEST(FreshnessCounter, AttestIsTentativeConfirmRaisesTheFloor) {
  ibbe::sgx::EnclavePlatform platform("fresh-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  std::array<std::uint8_t, 32> head{};
  head.fill(0x5a);

  auto t1 = enclave.ecall_attest_freshness("g", 0, 7, head);
  EXPECT_EQ(t1.counter, 1u);
  EXPECT_EQ(t1.gk_epoch, 7u);
  // Attestation alone must NOT advance the platform counter: a failed CAS
  // would otherwise brick the group (every committed index below the floor).
  EXPECT_EQ(enclave.ecall_freshness_floor("g"), 0u);
  auto t1b = enclave.ecall_attest_freshness("g", 0, 7, head);
  EXPECT_EQ(t1b.counter, 1u);  // same tentative counter until confirmed

  enclave.ecall_confirm_freshness("g", t1.counter);
  EXPECT_EQ(enclave.ecall_freshness_floor("g"), 1u);
  EXPECT_EQ(enclave.ecall_attest_freshness("g", 1, 7, head).counter, 2u);
  // Counters are per group.
  EXPECT_EQ(enclave.ecall_freshness_floor("other"), 0u);

  // The token authenticates counter, epoch, head AND the group it names.
  EXPECT_TRUE(t1.verify(enclave.freshness_verification_key(), "g"));
  EXPECT_FALSE(t1.verify(enclave.freshness_verification_key(), "other"));
  auto tampered = t1;
  tampered.counter = 99;
  EXPECT_FALSE(tampered.verify(enclave.freshness_verification_key(), "g"));
  auto rebound = t1;
  rebound.gk_epoch = 8;
  EXPECT_FALSE(rebound.verify(enclave.freshness_verification_key(), "g"));
}

// --------------------------------------------------- single-attack schedules

struct ByzantineFixture : ::testing::Test {
  ByzantineFixture()
      : platform("byz-box"),
        enclave(platform, 8),
        malicious(inner, MaliciousPlan{}),  // attacks driven explicitly
        rng(21),
        admin_key(ibbe::pki::EcdsaKeyPair::generate(rng)),
        admin(enclave, malicious, admin_key,
              AdminConfig{.partition_size = 3,
                          .retry = RetryPolicy{}.without_delays(),
                          .log_operations = true},
              /*seed=*/4) {
    admin.create_group(gid, make_users(4));  // generation 0, counter 1
    admin.add_user(gid, "u9");               // generation 1, counter 2
  }

  ClientApi make_client(const Identity& id, const std::string& gossip_name,
                        CloudStore& store) {
    ClientApi client(store, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     admin.verification_point());
    client.set_retry_policy(RetryPolicy{}.without_delays());
    client.enable_freshness(enclave.freshness_verification_key());
    client.enable_gossip(gossip_name);
    return client;
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  CloudStore inner;
  MaliciousStore malicious;
  ibbe::crypto::Drbg rng;
  ibbe::pki::EcdsaKeyPair admin_key;
  AdminApi admin;
  const GroupId gid = "g";
};

TEST_F(ByzantineFixture, WholesaleRollbackIsDetectedNeverAccepted) {
  ASSERT_GE(malicious.generation_count(), 2u);
  auto client = make_client("u0", "u0", malicious);
  auto live = client.fetch(gid);
  ASSERT_EQ(live.status, FetchStatus::ok);
  const Bytes current_key = *live.key;

  // The cloud rolls every client back to the pre-add generation: a wholly
  // consistent, correctly signed, merely OLD index+log pair.
  malicious.serve_generation(0);

  // A client that has seen the newer commit rejects on its own high-water
  // mark; degraded mode hands back the last VERIFIED key, read-only.
  auto rolled = client.fetch(gid);
  EXPECT_EQ(rolled.status, FetchStatus::stale);
  ASSERT_TRUE(rolled.key.has_value());
  EXPECT_EQ(*rolled.key, current_key);
  EXPECT_GT(client.stats().freshness_rejections, 0u);
  EXPECT_FALSE(client.is_forked(gid));

  // A BRAND-NEW client has no high-water mark — the admin's commit-time
  // gossip is what tells it the served view is old. No key, but no lie.
  auto newcomer = make_client("u1", "u1", malicious);
  auto fresh = newcomer.fetch(gid);
  EXPECT_EQ(fresh.status, FetchStatus::stale);
  EXPECT_FALSE(fresh.key.has_value());
  EXPECT_GT(newcomer.stats().freshness_rejections, 0u);

  // The admin's own re-sync refuses the rolled-back view outright: the
  // enclave's confirmed floor cannot be rolled back with the cloud.
  EXPECT_THROW(admin.sync_from_cloud(gid), TransientError);
  EXPECT_GT(admin.stats().rollback_rejections, 0u);

  // Healing restores everyone without restarts or re-provisioning.
  malicious.serve_live();
  auto healed = client.fetch(gid);
  ASSERT_EQ(healed.status, FetchStatus::ok);
  EXPECT_EQ(*healed.key, current_key);
  EXPECT_EQ(newcomer.fetch(gid).status, FetchStatus::ok);
}

TEST_F(ByzantineFixture, WithheldLogTailFailsTheAnchoredAudit) {
  // The committed index stays LIVE while the op-log is served from before
  // the add: chain-valid, signature-valid, merely missing the tail the
  // index's log_head anchors.
  auto old_log = malicious.snapshot_value(0, ibbe::system::oplog_path(gid));
  ASSERT_TRUE(old_log.has_value());
  malicious.override_path("", ibbe::system::oplog_path(gid), old_log->value);

  auto audit = admin.audit_group_log(gid);
  EXPECT_FALSE(audit.ok);
  EXPECT_NE(audit.failure.find("truncated"), std::string::npos)
      << audit.failure;

  // Clients do not consume the log; the live index still serves them.
  auto client = make_client("u9", "u9", malicious);
  EXPECT_EQ(client.fetch(gid).status, FetchStatus::ok);
}

TEST_F(ByzantineFixture, SelectiveStaleIndexIsRejectedByFreshness) {
  auto client = make_client("u0", "u0", malicious);
  auto live = client.fetch(gid);
  ASSERT_EQ(live.status, FetchStatus::ok);
  const Bytes current_key = *live.key;

  // Equivocation: ONLY the index file is served old (counter 1); partitions,
  // op-log and directory versions stay live.
  auto old_index = malicious.snapshot_value(0, ibbe::system::index_path(gid));
  ASSERT_TRUE(old_index.has_value());
  malicious.override_path("", ibbe::system::index_path(gid), old_index->value);

  auto result = client.fetch(gid);
  EXPECT_EQ(result.status, FetchStatus::stale);
  ASSERT_TRUE(result.key.has_value());
  EXPECT_EQ(*result.key, current_key);  // never the rolled-back epoch's view

  // A newcomer is saved by gossip again — admin announced counter 2.
  auto newcomer = make_client("u1", "u1", malicious);
  auto fresh = newcomer.fetch(gid);
  EXPECT_EQ(fresh.status, FetchStatus::stale);
  EXPECT_FALSE(fresh.key.has_value());

  malicious.clear_overrides("");
  EXPECT_EQ(client.fetch(gid).status, FetchStatus::ok);
}

// ------------------------------------------------ cipher-object substitution
//
// The cloud cannot forge the administrator's signature, but it can serve one
// correctly signed cipher object under another live name. Every cipher
// object names the partition and key epoch it was written for, and the
// metadata reader holds both to the signed manifest: a substituted object is
// stale (denial of service at worst), never a key.

struct SubstitutionFixture : ::testing::Test {
  SubstitutionFixture()
      : platform("subst-box"),
        enclave(platform, 4),
        rng(33),
        admin_key(ibbe::pki::EcdsaKeyPair::generate(rng)),
        admin(enclave, cloud, admin_key, config(), /*seed=*/5) {
    admin.create_group(gid, make_users(8));  // u0..u3 | u4..u7, both full
  }

  static AdminConfig config() {
    AdminConfig c;
    c.partition_size = 4;
    c.retry = RetryPolicy{}.without_delays();
    return c;
  }

  ibbe::system::GroupManifest manifest() {
    auto env = ibbe::system::SignedEnvelope::from_bytes(
        *cloud.get(ibbe::system::index_path(gid)));
    return ibbe::system::GroupManifest::from_bytes(env.payload);
  }

  Bytes overlay_bytes(std::uint64_t oid) {
    return *cloud.get(ibbe::system::cipher_overlay_path(gid, oid));
  }

  std::unique_ptr<ClientApi> client_for(const Identity& id) {
    auto client = std::make_unique<ClientApi>(
        cloud, enclave.public_key(), enclave.ecall_extract_user_key(id),
        admin.verification_point());
    client->set_retry_policy(RetryPolicy{}.without_delays());
    return client;
  }

  ClientApi::FetchResult fresh_fetch(const Identity& id) {
    return client_for(id)->fetch(gid);
  }

  /// A client that has fetched once already: its index, cipher and
  /// prepared-partition caches hold whatever that fetch saw.
  std::unique_ptr<ClientApi> warm_client(const Identity& id) {
    auto client = client_for(id);
    (void)client->fetch(gid);
    return client;
  }

  /// The partition `id` is listed in by the committed shards.
  ibbe::system::PartitionId partition_of(const Identity& id) {
    for (const auto& ref : manifest().shards) {
      auto env = ibbe::system::SignedEnvelope::from_bytes(
          *cloud.get(ibbe::system::shard_path(gid, ref.sid)));
      for (const auto& [pid, members] :
           ibbe::system::IndexShard::from_bytes(env.payload).partitions) {
        if (std::find(members.begin(), members.end(), id) != members.end()) {
          return pid;
        }
      }
    }
    ADD_FAILURE() << id << " is in no committed partition";
    return 0;
  }

  /// A second administrator over the same enclave re-syncs with no cache.
  void expect_fresh_sync_rejects() {
    AdminApi peer(enclave, cloud, admin_key, config(), /*seed=*/6);
    EXPECT_THROW(peer.sync_from_cloud(gid), TransientError);
    EXPECT_FALSE(peer.is_member(gid, "u1"));  // nothing was cached
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  CloudStore cloud;
  ibbe::crypto::Drbg rng;
  ibbe::pki::EcdsaKeyPair admin_key;
  AdminApi admin;
  const GroupId gid = "g";
};

TEST_F(SubstitutionFixture, OverlayOfAnotherPartitionIsRejected) {
  admin.remove_user(gid, "u0");  // rotation; u1..u3 leaves room for one
  admin.add_user(gid, "x");      // the only open partition: an overlay
  auto warm = warm_client("y");  // not yet a member; its index is cached
  admin.add_user(gid, "y");      // none open: a fresh partition's overlay
  auto m = manifest();
  ASSERT_EQ(m.overlays.size(), 2u);
  const auto first = m.overlays.begin();
  const auto second = std::next(first);
  cloud.put(ibbe::system::cipher_overlay_path(gid, second->second),
            overlay_bytes(first->second));

  EXPECT_NE(fresh_fetch("y").status, FetchStatus::ok);
  EXPECT_NE(warm->fetch(gid).status, FetchStatus::ok);
  expect_fresh_sync_rejects();
}

TEST_F(SubstitutionFixture, PreRevocationBundleIsRejected) {
  auto before = manifest();
  auto old_bundle =
      *cloud.get(ibbe::system::cipher_bundle_path(gid, before.cipher_set));
  auto warm = warm_client("u5");  // prepared over u4..u7, old entry cached
  admin.remove_user(gid, "u0");
  auto live = manifest();
  ASSERT_NE(live.gk_epoch, before.gk_epoch);
  cloud.put(ibbe::system::cipher_bundle_path(gid, live.cipher_set),
            old_bundle);

  // u5's partition is unchanged, so the old bundle still decrypts for it —
  // to the pre-revocation key, which the revoked u0 holds too.
  auto fetched = fresh_fetch("u5");
  EXPECT_EQ(fetched.status, FetchStatus::unavailable);
  EXPECT_FALSE(fetched.key.has_value());
  // The warm client's partition is unchanged, so its prepared partition
  // stays valid; only the bundle's epoch tells the entry is old.
  fetched = warm->fetch(gid);
  EXPECT_EQ(fetched.status, FetchStatus::unavailable);
  EXPECT_FALSE(fetched.key.has_value());
  EXPECT_EQ(warm->stats().prepares, 1u);
  expect_fresh_sync_rejects();
}

TEST_F(SubstitutionFixture, PreRevocationOverlayIsRejected) {
  admin.add_user(gid, "x");  // none open: a fresh partition [x]
  admin.add_user(gid, "w");  // [x, w], written as an overlay
  auto warm = warm_client("x");  // prepared over [x, w], overlay cached
  auto before = manifest();
  ASSERT_EQ(before.overlays.size(), 1u);
  auto old_overlay = overlay_bytes(before.overlays.begin()->second);
  admin.remove_user(gid, "w");  // rotation: [x], overlays cleared
  admin.add_user(gid, "w");     // the only open partition: [x, w] again
  auto live = manifest();
  ASSERT_EQ(live.overlays.size(), 1u);
  ASSERT_EQ(live.overlays.begin()->first, before.overlays.begin()->first);
  ASSERT_NE(live.gk_epoch, before.gk_epoch);
  cloud.put(ibbe::system::cipher_overlay_path(gid,
                                              live.overlays.begin()->second),
            old_overlay);

  // Same partition, same members: only the key epoch tells them apart.
  auto fetched = fresh_fetch("x");
  EXPECT_EQ(fetched.status, FetchStatus::unavailable);
  EXPECT_FALSE(fetched.key.has_value());
  // The warm client folds back to the member list it prepared from.
  fetched = warm->fetch(gid);
  EXPECT_EQ(fetched.status, FetchStatus::unavailable);
  EXPECT_FALSE(fetched.key.has_value());
  EXPECT_EQ(warm->stats().prepares, 1u);
  expect_fresh_sync_rejects();
}

TEST_F(SubstitutionFixture, ListedButExcludedDegradesWithWarmCachesThenRecovers) {
  auto warm = warm_client("u0");  // prepared over u0..u3
  ASSERT_EQ(warm->stats().prepares, 1u);
  admin.remove_user(gid, "u5");   // rotation; u0's partition is unchanged
  const auto live = manifest();
  const std::string path =
      ibbe::system::cipher_bundle_path(gid, live.cipher_set);
  const Bytes genuine = *cloud.get(path);

  // An authentic, current-epoch bundle whose entry for u0's partition holds
  // the ciphertext made for the other partition: the index lists u0 next to
  // a ciphertext produced without it.
  auto bundle = ibbe::system::CipherBundle::from_bytes(
      ibbe::system::SignedEnvelope::from_bytes(genuine).payload);
  ASSERT_EQ(bundle.entries.size(), 2u);
  const auto host = partition_of("u0");
  auto& mine = bundle.entries[0].first == host ? bundle.entries[0]
                                               : bundle.entries[1];
  auto& other = bundle.entries[0].first == host ? bundle.entries[1]
                                                : bundle.entries[0];
  ASSERT_EQ(mine.first, host);
  mine.second.ct = other.second.ct;
  cloud.put(path, ibbe::system::sign_record(admin_key, bundle));

  auto torn = warm->fetch(gid);
  EXPECT_EQ(torn.status, FetchStatus::unavailable);
  EXPECT_FALSE(torn.key.has_value());
  // The first attempt decrypted with the cached prepared partition; each
  // failed attempt dropped every cache, so each later one prepared afresh.
  EXPECT_EQ(warm->stats().prepares,
            static_cast<std::uint64_t>(
                RetryPolicy{}.without_delays().max_attempts));

  cloud.put(path, genuine);
  auto healed = warm->fetch(gid);
  ASSERT_EQ(healed.status, FetchStatus::ok);
  EXPECT_EQ(healed.key, fresh_fetch("u1").key);
}

// ------------------------------------------------------------ the fork test

TEST(ByzantineFork, ForkedClientsDetectDivergenceWithinOnePollRound) {
  // Construct a REAL fork: two admins race one index CAS, so two
  // enclave-attested freshness tokens share counter c+1 with divergent log
  // heads. The loser's payload never committed — but it is correctly signed
  // all the way down, which makes it perfect equivocation material for a
  // Byzantine cloud.
  ibbe::sgx::EnclavePlatform platform("fork-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  CloudStore inner;
  MaliciousStore malicious(inner, MaliciousPlan{});
  FaultInjectingStore faulty(malicious, FaultPlan{});  // for the write hook
  ibbe::crypto::Drbg rng(31);
  auto key_a = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto key_b = ibbe::pki::EcdsaKeyPair::generate(rng);

  auto config_for = [&](std::uint32_t nonce, const std::string& name,
                        const ibbe::pki::EcdsaKeyPair& peer) {
    AdminConfig config;
    config.partition_size = 3;
    config.admin_nonce = nonce;
    config.admin_name = name;
    config.log_operations = true;
    config.retry = RetryPolicy{}.without_delays();
    config.peer_verification_keys = {ibbe::ec::p256_to_bytes(peer.public_key())};
    return config;
  };
  AdminApi admin_a(enclave, faulty, key_a, config_for(1, "A", key_b), 8);
  AdminApi admin_b(enclave, faulty, key_b, config_for(2, "B", key_a), 9);

  const GroupId gid = "g";
  const std::string index = ibbe::system::index_path(gid);
  admin_a.create_group(gid, make_users(4));  // counter 1 committed
  admin_b.sync_from_cloud(gid);

  // Pause B at its index CAS; A commits a full add in that window. Both
  // attested counter 2 — A's confirmed with head h_A, B's rejected with
  // head h_B.
  bool fired = false;
  faulty.set_write_hook([&](const std::string& path) {
    if (fired || path != index) return;
    fired = true;
    admin_a.add_user(gid, "from-a");  // auto-captures the h_A generation
  });
  admin_b.add_user(gid, "from-b");  // retries and commits counter 3 after
  ASSERT_TRUE(fired);
  auto rejected = malicious.rejected_writes(index);
  ASSERT_EQ(rejected.size(), 1u) << "B's losing CAS payload not captured";
  const std::size_t fork_gen = 1;  // generation captured at A's mid-hook add
  ASSERT_GE(malicious.generation_count(), 3u);

  // The adversary suppresses the admins' commit announcements (models
  // clients racing ahead of gossip propagation) and serves each client one
  // side of the counter-2 fork: X gets B's rejected world, Y gets A's.
  for (const auto& path : inner.list(ibbe::system::gossip_dir(gid))) {
    (void)inner.erase(path);
  }
  malicious.pin_view("X", fork_gen);
  malicious.override_path("X", index, rejected[0]);
  malicious.pin_view("Y", fork_gen);

  std::vector<ibbe::ec::P256Point> admin_keys = {key_a.public_key(),
                                                 key_b.public_key()};
  auto make_client = [&](const Identity& id, const std::string& name) {
    ClientApi client(malicious.view(name), enclave.public_key(),
                     enclave.ecall_extract_user_key(id), admin_keys);
    client.set_retry_policy(RetryPolicy{}.without_delays());
    client.enable_freshness(enclave.freshness_verification_key());
    client.enable_gossip(name);
    return client;
  };
  auto x = make_client("u0", "X");
  auto y = make_client("u1", "Y");

  // X has nothing to compare against: its side of the fork verifies clean.
  // Its observation lands on the gossip channel.
  auto x_first = x.fetch(gid);
  ASSERT_EQ(x_first.status, FetchStatus::ok);

  // Y's side also verifies clean — but X's observation carries the SAME
  // counter with a DIFFERENT head. One poll round, fork proven.
  auto y_first = y.fetch(gid);
  EXPECT_EQ(y_first.status, FetchStatus::forked);
  EXPECT_TRUE(y.is_forked(gid));
  EXPECT_EQ(y.stats().forks_detected, 1u);

  // Y's proof-of-divergence announcement closes the loop: X detects on ITS
  // next round (here via the change-watch path), without ever accepting a
  // second unverified view. The verdict is sticky.
  EXPECT_EQ(x.wait_for_update(gid, std::chrono::milliseconds(200)),
            std::nullopt);
  EXPECT_TRUE(x.is_forked(gid));
  EXPECT_EQ(x.fetch(gid).status, FetchStatus::forked);
  // Degraded mode: the last VERIFIED key remains available read-only.
  EXPECT_TRUE(x.fetch(gid).key.has_value());

  // A client on the HEALED live view (counter 3) is past the forked counter
  // and accepts normally: detection never poisons honest state.
  auto z = make_client("u2", "Z");
  EXPECT_EQ(z.fetch(gid).status, FetchStatus::ok);
}

// ------------------------------------------------ splice-across-fork audit

TEST(OpLogFork, TwoValidChainsSharingAPrefixAreSplitByTheAnchor) {
  ibbe::crypto::Drbg rng(77);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog base;
  base.append(LogOp::create_group, "members=2", "solo", key);
  base.append(LogOp::add_user, "x", "solo", key);

  // The server forks history after the shared prefix: one chain adds alice,
  // the "other timeline" adds mallory. BOTH are internally perfect.
  auto fork_a = MembershipLog::from_bytes(base.to_bytes());
  auto fork_b = MembershipLog::from_bytes(base.to_bytes());
  fork_a.append(LogOp::add_user, "alice", "solo", key);
  fork_b.append(LogOp::add_user, "mallory", "solo", key);

  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};
  EXPECT_TRUE(fork_a.audit(keys).ok);
  EXPECT_TRUE(fork_b.audit(keys).ok);  // chain integrity cannot tell them apart

  // The committed index anchors exactly one timeline; the enclave freshness
  // token binds that anchor to a monotonic counter, so the cloud cannot
  // re-anchor an old index either. The other timeline must be rejected.
  const auto anchor = fork_a.entries().back().hash;
  EXPECT_TRUE(fork_a.audit(keys, &anchor).ok);
  auto verdict = fork_b.audit(keys, &anchor);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.failure.find("truncated"), std::string::npos)
      << verdict.failure;
}

// ------------------------------------------------------- full Byzantine stack

TEST(ByzantineScheme, RandomAttackScheduleCostsRetriesNeverCorrectness) {
  FaultPlan faults;
  faults.seed = 1234;
  faults.put_error_rate = 0.02;
  faults.get_error_rate = 0.02;
  faults.crash_rate = 0.02;  // composed with crash points and recovery
  MaliciousPlan malice;
  malice.seed = 4321;
  malice.rollback_rate = 0.05;
  malice.withhold_rate = 0.05;
  malice.equivocate_rate = 0.05;
  malice.max_window = 4;
  ibbe::system::IbbeSgxScheme scheme(4, /*seed=*/11, faults, malice);
  EXPECT_NE(scheme.name().find("+byzantine"), std::string::npos);

  auto users = make_users(8);
  scheme.create_group(std::vector<Identity>(users.begin(), users.begin() + 6));
  scheme.add_user(users[6]);
  scheme.remove_user(users[1]);
  scheme.add_user(users[7]);
  scheme.remove_user(users[4]);

  // The oracle is the fault-free one: every member derives the SAME key,
  // every outsider derives none, under an actively lying store.
  std::set<Identity> members = {users[0], users[2], users[3],
                                users[5], users[6], users[7]};
  std::optional<Bytes> reference;
  for (const auto& u : users) {
    auto key = scheme.user_decrypt(u);
    if (members.count(u)) {
      ASSERT_TRUE(key.has_value()) << u << " locked out";
      if (!reference) reference = key;
      EXPECT_EQ(*key, *reference) << u << " diverged";
    } else {
      EXPECT_FALSE(key.has_value()) << u << " not revoked";
    }
  }
  // The schedule genuinely attacked this run (replayable from the seeds).
  EXPECT_GT(scheme.malicious_store()->malicious_stats().generations, 0u);
}

}  // namespace

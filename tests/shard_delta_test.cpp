// Sharded-index + incremental-delta behaviour (the million-user metadata
// layout): warm clients fold hash-chained deltas instead of re-downloading
// the index, every fold failure degrades into the snapshot path (never a
// parse error or a wrong view), and the CachedIndex fold primitive rejects
// replays, gaps and structurally inconsistent deltas by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>

#include "cloud/fault.h"
#include "crypto/gcm.h"
#include "system/admin.h"
#include "system/client.h"
#include "test_util.h"

namespace {

using namespace std::chrono_literals;
using ibbe::cloud::CloudStore;
using ibbe::cloud::FaultInjectingStore;
using ibbe::cloud::FaultPlan;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::CachedIndex;
using ibbe::system::ClientApi;
using ibbe::system::DeltaOp;
using ibbe::system::GroupId;
using ibbe::system::IndexDelta;
using ibbe::system::MetadataReader;
using ibbe::system::ObjectName;
using ibbe::util::Bytes;
using ibbe::testutil::numbered;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

/// The delta files currently on the cloud for `gid`, sorted by sequence
/// number (numeric — "d10" must sort after "d9").
std::vector<std::pair<std::uint64_t, std::string>> delta_files(
    const CloudStore& cloud, const GroupId& gid) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& path : cloud.list("groups/" + gid + "/d")) {
    auto pos = path.rfind("/d");
    out.emplace_back(std::stoull(path.substr(pos + 2)), path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct ShardDeltaFixture : ::testing::Test {
  ShardDeltaFixture() : platform("delta-box"), enclave(platform, 8), rng(17) {}

  AdminApi admin_on(CloudStore& store, AdminConfig config,
                    std::uint64_t seed = 5) {
    return AdminApi(enclave, store, ibbe::pki::EcdsaKeyPair::generate(rng),
                    config, seed);
  }

  ClientApi client_on(CloudStore& store, const AdminApi& admin,
                      const Identity& id) {
    return ClientApi(store, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     admin.verification_point());
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  ibbe::crypto::Drbg rng;
  const GroupId gid = "g";
};

// ---------------------------------------------------------------------------
// Warm path: fold, don't re-download
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, WarmClientFoldsDeltaInsteadOfSnapshot) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());  // cold: full snapshot
  EXPECT_EQ(c.stats().delta_folds, 0u);

  admin.add_user(gid, "late-joiner");
  EXPECT_EQ(admin.stats().deltas_published, 1u);

  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);      // exactly the one new commit
  EXPECT_EQ(c.stats().fold_fallbacks, 0u);   // no snapshot re-download
  EXPECT_EQ(c.stats().degraded_refetches, 0u);
  EXPECT_EQ(*key, *client_on(cloud, admin, "late-joiner").fetch_group_key(gid));

  // No change since: the warm path re-reads the manifest and nothing else.
  auto gets_before = cloud.stats().gets;
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);
  EXPECT_LE(cloud.stats().gets - gets_before, 2u);
}

TEST_F(ShardDeltaFixture, DeltaGapFallsBackToSnapshot) {
  ibbe::cloud::CloudStore cloud;
  // Retain only 2 deltas: three commits later a warm cache is out of window.
  auto admin = admin_on(cloud, {.partition_size = 3, .delta_window = 2});
  admin.create_group(gid, make_users(6));

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  for (int i = 0; i < 3; ++i) admin.add_user(gid, "j" + std::to_string(i));
  EXPECT_EQ(delta_files(cloud, gid).size(), 2u);  // window enforced by GC

  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);  // gap -> snapshot, not an error
  EXPECT_EQ(c.stats().delta_folds, 0u);

  // The freshly snapshotted cache is warm again: the next commit folds.
  admin.add_user(gid, "j3");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());
  EXPECT_EQ(c.stats().delta_folds, 1u);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
}

TEST_F(ShardDeltaFixture, WarmClientFoldsAcrossShardRepartition) {
  ibbe::cloud::CloudStore cloud;
  auto admin =
      admin_on(cloud, {.partition_size = 3, .shard_partitions = 2});
  // 12 users -> 4 full partitions -> 2 shards of 2.
  admin.create_group(gid, make_users(12));
  ASSERT_EQ(admin.partition_count(gid), 4u);
  ASSERT_EQ(admin.shard_count(gid), 2u);

  auto c = client_on(cloud, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  // Empty out most of the second shard's partitions: 2 of its 2 partitions
  // drop below ceil(2m/3) while globally only 2 of 4 are sparse — the
  // shard-local rule fires, the global (snapshot-barrier) rebuild does not.
  admin.remove_users(gid, std::vector<Identity>{"user7", "user8", "user10",
                                                "user11"});
  EXPECT_EQ(admin.stats().shard_repartitions, 1u);
  EXPECT_EQ(admin.stats().repartitions, 0u);

  // The warm client folds the removes + the repartition op — no snapshot.
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_GE(c.stats().delta_folds, 1u);
  EXPECT_EQ(c.stats().fold_fallbacks, 0u);

  // Survivors of the repartitioned shard share the rotated key; the revoked
  // users are out.
  EXPECT_EQ(*key, *client_on(cloud, admin, "user6").fetch_group_key(gid));
  EXPECT_EQ(*key, *client_on(cloud, admin, "user9").fetch_group_key(gid));
  EXPECT_FALSE(client_on(cloud, admin, "user7").fetch_group_key(gid));
}

// ---------------------------------------------------------------------------
// Fold rejection paths (all must degrade into the snapshot path)
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, TamperedDeltaForcesSnapshot) {
  // Replace one delta with a well-formed delta carrying different ops: the
  // first, which only its successor's prev_delta_hash pins, or the newest,
  // which the manifest's delta_hash pins. Its seq and log-head links still
  // fit; only the hash chain exposes it.
  for (std::size_t victim : {0u, 1u}) {
    SCOPED_TRACE("victim delta " + std::to_string(victim));
    ibbe::cloud::CloudStore cloud;
    auto admin = admin_on(cloud, {.partition_size = 3});
    admin.create_group(gid, make_users(6));

    auto c = client_on(cloud, admin, "user0");
    ASSERT_TRUE(c.fetch_group_key(gid).has_value());

    admin.add_user(gid, "x");
    admin.add_user(gid, "y");
    auto deltas = delta_files(cloud, gid);
    ASSERT_EQ(deltas.size(), 2u);

    auto stored = cloud.get(deltas[victim].second);
    ASSERT_TRUE(stored.has_value());
    auto forged = IndexDelta::from_bytes(*stored);
    ASSERT_EQ(forged.ops.size(), 1u);
    forged.ops[0].user = "mallory";
    (void)cloud.put(deltas[victim].second, forged.to_bytes());

    auto key = c.fetch_group_key(gid);
    ASSERT_TRUE(key.has_value());  // snapshot fallback still authenticates
    EXPECT_EQ(c.stats().fold_fallbacks, 1u);
    EXPECT_EQ(c.stats().delta_folds, 0u);  // rejected before any op applied
    EXPECT_EQ(*key, *client_on(cloud, admin, "y").fetch_group_key(gid));
  }
}

TEST_F(ShardDeltaFixture, CasLoserClobberingCommittedDeltaForcesSnapshot) {
  // Two administrators on one enclave, op-log off, so every delta's log-head
  // link is all-zero. Admin B's first delta put is paused while admin A
  // commits a full add; B's losing delta then lands on the name A just
  // committed (both attested the same counter), and B's retry commits one
  // counter later. A warm client folding through the clobbered delta must
  // not adopt B's ops in place of A's.
  CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  auto key_a = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto key_b = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto config_for = [](std::uint32_t nonce,
                       const ibbe::pki::EcdsaKeyPair& peer) {
    AdminConfig config;
    config.partition_size = 3;
    config.admin_nonce = nonce;
    config.admin_name = "admin" + std::to_string(nonce);
    config.peer_verification_keys = {ibbe::ec::p256_to_bytes(peer.public_key())};
    return config;
  };
  AdminApi admin_a(enclave, faulty, key_a, config_for(1, key_b), 8);
  AdminApi admin_b(enclave, faulty, key_b, config_for(2, key_a), 9);
  admin_a.create_group(gid, make_users(4));
  admin_b.sync_from_cloud(gid);

  ClientApi c(faulty, enclave.public_key(),
              enclave.ecall_extract_user_key("from-a"),
              std::vector<ibbe::ec::P256Point>{key_a.public_key(),
                                               key_b.public_key()});
  ASSERT_EQ(c.fetch(gid).status, ClientApi::FetchStatus::not_member);

  const std::string delta_prefix = "groups/" + gid + "/d";
  bool fired = false;
  faulty.set_write_hook([&](const std::string& path) {
    if (fired || path.rfind(delta_prefix, 0) != 0) return;
    fired = true;
    admin_a.add_user(gid, "from-a");  // commits the name B is about to put
  });
  admin_b.add_user(gid, "from-b");
  faulty.set_write_hook(nullptr);
  ASSERT_TRUE(fired);
  ASSERT_GE(admin_b.stats().cas_conflicts, 1u);

  auto raced = c.fetch(gid);
  EXPECT_EQ(raced.status, ClientApi::FetchStatus::ok);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);

  // The snapshot-rebuilt view keeps folding correctly after the next commit.
  admin_b.add_user(gid, "later");
  auto next = c.fetch(gid);
  EXPECT_EQ(next.status, ClientApi::FetchStatus::ok);
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
}

TEST_F(ShardDeltaFixture, ViewFromAnotherHistoryForcesSnapshot) {
  // Two histories of one group that agree on the commit counters but not on
  // their content, as a forking cloud would serve them. With the op-log off
  // the log-head links are all-zero, so only the manifest's delta_hash ties
  // a cached view, or the first delta folded onto it, to one history.
  ibbe::sgx::EnclavePlatform box_a("fork-a");
  ibbe::sgx::EnclavePlatform box_b("fork-b");
  ibbe::enclave::IbbeEnclave enclave_a(box_a, 8, /*rng_seed=*/42);
  ibbe::enclave::IbbeEnclave enclave_b(box_b, 8, /*rng_seed=*/42);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  CloudStore cloud;
  CloudStore fork;
  AdminConfig config;
  config.partition_size = 3;
  AdminApi admin_a(enclave_a, cloud, key, config, 5);
  AdminApi admin_b(enclave_b, fork, key, config, 5);
  admin_a.create_group(gid, make_users(6));
  admin_b.create_group(gid, make_users(6));
  admin_a.add_user(gid, "x");  // counter 2 in this history
  admin_b.add_user(gid, "y");  // counter 2 in the other

  auto serve_fork = [&] {
    for (const auto& path : fork.list(ibbe::system::group_dir(gid) + "/")) {
      (void)cloud.put(path, *fork.get(path));
    }
  };
  auto client_y = [&] {
    return ClientApi(cloud, enclave_a.public_key(),
                     enclave_a.ecall_extract_user_key("y"), key.public_key());
  };
  ClientApi same_counter = client_y();
  ClientApi next_commit = client_y();
  ASSERT_EQ(same_counter.fetch(gid).status, ClientApi::FetchStatus::not_member);
  ASSERT_EQ(next_commit.fetch(gid).status, ClientApi::FetchStatus::not_member);

  // Same counter, epoch and log head: only delta_hash tells the cached view
  // apart from the manifest now served.
  serve_fork();
  EXPECT_EQ(same_counter.fetch(gid).status, ClientApi::FetchStatus::ok);
  EXPECT_EQ(same_counter.stats().fold_fallbacks, 1u);

  // One commit later: the new d3 extends a d2 the cached view never held.
  admin_b.add_user(gid, "z");
  serve_fork();
  EXPECT_EQ(next_commit.fetch(gid).status, ClientApi::FetchStatus::ok);
  EXPECT_EQ(next_commit.stats().fold_fallbacks, 1u);
  EXPECT_EQ(next_commit.stats().delta_folds, 0u);
}

TEST_F(ShardDeltaFixture, TornDeltaReadDegradesToSnapshot) {
  ibbe::cloud::CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  auto admin = admin_on(faulty, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto c = client_on(faulty, admin, "user0");
  ASSERT_TRUE(c.fetch_group_key(gid).has_value());

  admin.add_user(gid, "x");
  auto deltas = delta_files(inner, gid);
  ASSERT_EQ(deltas.size(), 1u);

  // A lagging replica serves the committed manifest but not the delta it
  // references: the fold degrades to a snapshot, it does not error.
  faulty.withhold_path(deltas[0].second);
  auto key = c.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(c.stats().fold_fallbacks, 1u);
  EXPECT_EQ(c.stats().delta_folds, 0u);
  EXPECT_GE(faulty.fault_stats().stale_reads, 1u);
}

TEST_F(ShardDeltaFixture, MissingShardDegradesLikeTornSnapshotThenRecovers) {
  ibbe::cloud::CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  auto admin = admin_on(faulty, {.partition_size = 3});
  admin.create_group(gid, make_users(6));

  auto shards = inner.list("groups/" + gid + "/s");
  ASSERT_FALSE(shards.empty());
  faulty.withhold_path(shards[0]);

  // A cold client sees a committed manifest whose shard the replica does not
  // serve yet. That is the torn-snapshot re-fetch loop — bounded retries and
  // an `unavailable` verdict, never a parse error or a false non-member.
  auto c = client_on(faulty, admin, "user0");
  c.set_retry_policy({.max_attempts = 3,
                      .base_delay = std::chrono::microseconds(1),
                      .max_delay = std::chrono::microseconds(10)});
  auto result = c.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::unavailable);
  EXPECT_FALSE(result.key.has_value());
  EXPECT_GE(c.stats().degraded_refetches, 1u);

  // The replica catches up: the very next fetch succeeds.
  faulty.clear_withheld();
  auto healed = c.fetch(gid);
  EXPECT_EQ(healed.status, ClientApi::FetchStatus::ok);
  ASSERT_TRUE(healed.key.has_value());
}

// ---------------------------------------------------------------------------
// Prepared-partition cache: re-prepare only when the member list changes
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, ClientRePreparesOnlyWhenItsPartitionChanges) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 4});
  admin.create_group(gid, make_users(4));  // one full partition
  const MetadataReader reader({admin.verification_point()});

  // The group key as the one-shot core::decrypt derives it for `id` from
  // the committed objects, with no client cache involved.
  auto reference_key = [&](const Identity& id) -> Bytes {
    auto m = reader.manifest(cloud.get(ibbe::system::index_path(gid)), gid,
                             nullptr);
    EXPECT_TRUE(m.ok());
    for (const auto& ref : m.record.shards) {
      auto shard =
          reader.shard(cloud.get(ibbe::system::shard_path(gid, ref.sid)), ref);
      EXPECT_TRUE(shard.ok());
      for (const auto& [pid, members] : shard.record.partitions) {
        if (std::find(members.begin(), members.end(), id) == members.end()) {
          continue;
        }
        auto overlay = m.record.overlays.find(pid);
        auto cipher =
            overlay != m.record.overlays.end()
                ? reader
                      .overlay(cloud.get(ibbe::system::cipher_overlay_path(
                                   gid, overlay->second)),
                               m.record, pid)
                      .record.cipher
                : *reader
                       .bundle(cloud.get(ibbe::system::cipher_bundle_path(
                                   gid, m.record.cipher_set)),
                               m.record)
                       .record.find(pid);
        auto bk = ibbe::core::decrypt(enclave.public_key(),
                                      enclave.ecall_extract_user_key(id),
                                      members, cipher.ct);
        EXPECT_TRUE(bk.has_value());
        auto gk = ibbe::crypto::Aes256Gcm(bk->hash())
                      .open(cipher.nonce, cipher.wrapped_gk);
        EXPECT_TRUE(gk.has_value());
        return gk.value_or(Bytes{});
      }
    }
    ADD_FAILURE() << id << " is in no committed partition";
    return {};
  };

  auto c = client_on(cloud, admin, "user0");
  auto expect_fetch = [&](std::uint64_t prepares) {
    auto key = c.fetch_group_key(gid);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, reference_key("user0"));
    EXPECT_EQ(c.stats().prepares, prepares);
    EXPECT_EQ(c.stats().fold_fallbacks, 0u);
  };
  expect_fetch(1);  // cold

  admin.add_user(gid, "x");  // no open partition: a fresh one elsewhere
  expect_fetch(1);
  admin.remove_user(gid, "x");  // a rotation that leaves user0's alone
  expect_fetch(1);
  admin.remove_user(gid, "user1");  // a revocation inside it
  expect_fetch(2);
  admin.add_user(gid, "late");  // the only open partition: user0's
  expect_fetch(3);
  EXPECT_EQ(c.stats().decryptions, 5u);
}

// ---------------------------------------------------------------------------
// CachedIndex fold primitive
// ---------------------------------------------------------------------------

TEST(CachedIndexFold, ReplayedOrDuplicatedDeltaIsNoOp) {
  CachedIndex view;
  view.counter = 5;
  view.log_head.fill(0x11);
  view.add_partition(1, {"a", "b"});

  IndexDelta d;
  d.seq = 6;
  d.prev_log_head.fill(0x11);
  d.log_head.fill(0x22);
  DeltaOp add;
  add.kind = DeltaOp::Kind::add_member;
  add.user = "c";
  add.pid = 1;
  d.ops = {add};

  ASSERT_TRUE(view.apply(d));
  EXPECT_EQ(view.counter, 6u);
  EXPECT_EQ(view.member_count(), 3u);
  EXPECT_EQ(view.find_user("c"), std::optional<std::uint64_t>(1));

  // Replaying the very same delta is rejected by the seq/log-head chain and
  // leaves the view untouched.
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.counter, 6u);
  EXPECT_EQ(view.member_count(), 3u);

  // A gap (seq jumps ahead) is rejected too.
  IndexDelta gap = d;
  gap.seq = 8;
  gap.prev_log_head = d.log_head;
  EXPECT_FALSE(view.apply(gap));

  // Right seq but the wrong chain (spliced from another history).
  IndexDelta spliced = d;
  spliced.seq = 7;
  spliced.prev_log_head.fill(0x77);
  EXPECT_FALSE(view.apply(spliced));
  EXPECT_EQ(view.counter, 6u);
}

TEST(CachedIndexFold, StructurallyInconsistentDeltaIsRejected) {
  CachedIndex view;
  view.counter = 1;
  view.add_partition(1, {"a"});

  // Removing a user who is not in the named partition cannot be folded.
  IndexDelta d;
  d.seq = 2;
  DeltaOp remove;
  remove.kind = DeltaOp::Kind::remove_member;
  remove.user = "ghost";
  remove.pid = 1;
  d.ops = {remove};
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.member_count(), 1u);

  // Repartitioning a partition the view does not have: same verdict.
  DeltaOp repart;
  repart.kind = DeltaOp::Kind::repartition;
  repart.dropped = {42};
  d.ops = {repart};
  EXPECT_FALSE(view.apply(d));
  EXPECT_EQ(view.counter, 1u);

  // Adding a user who is already in the view, even to another partition,
  // would put one user in two partitions.
  CachedIndex two;
  two.counter = 1;
  two.add_partition(1, {"a"});
  two.add_partition(2, {"b"});
  DeltaOp again;
  again.kind = DeltaOp::Kind::add_member;
  again.user = "a";
  again.pid = 2;
  d.ops = {again};
  EXPECT_FALSE(two.apply(d));
  EXPECT_EQ(two.member_count(), 2u);
  EXPECT_EQ(two.find_user("a"), std::optional<std::uint64_t>(1));

  // A repartition may only regroup the members it drops: `b` stays in
  // partition 2, so listing it again in a created partition is rejected.
  DeltaOp regroup;
  regroup.kind = DeltaOp::Kind::repartition;
  regroup.dropped = {1};
  regroup.created = {{3, {"a", "b"}}};
  d.ops = {regroup};
  EXPECT_FALSE(two.apply(d));
  EXPECT_EQ(two.counter, 1u);
}

TEST(ObjectPaths, ParseInvertsEveryNumberedPathBuilder) {
  using Kind = ObjectName::Kind;
  namespace sys = ibbe::system;
  const std::uint64_t id = (std::uint64_t{7} << 32) | 5;  // a peer's id
  const std::pair<std::string, Kind> built[] = {
      {sys::shard_path("g", id), Kind::shard},
      {sys::cipher_bundle_path("g", id), Kind::cipher_bundle},
      {sys::cipher_overlay_path("g", id), Kind::cipher_overlay},
      {sys::delta_path("g", id), Kind::delta},
      {sys::sealed_gk_path("g", id), Kind::sealed_gk},
  };
  for (const auto& [path, kind] : built) {
    auto name = sys::parse_object_path("g", path);
    ASSERT_TRUE(name.has_value()) << path;
    EXPECT_EQ(name->kind, kind) << path;
    EXPECT_EQ(name->id, id) << path;
    // Another group's object is not this group's.
    EXPECT_FALSE(sys::parse_object_path("h", path).has_value()) << path;
  }
  const std::string dir = sys::group_dir("g") + "/";
  for (const char* name : {"index", "oplog", "s", "s12x", "gk5", "d-1"}) {
    EXPECT_FALSE(sys::parse_object_path("g", dir + name).has_value()) << name;
  }
  EXPECT_FALSE(sys::parse_object_path("g", sys::index_path("g")).has_value());
  EXPECT_FALSE(sys::parse_object_path("g", sys::oplog_path("g")).has_value());
}

// ---------------------------------------------------------------------------
// A folded view is the committed snapshot
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, FoldedViewEqualsCommittedSnapshotInOrder) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 4, .shard_partitions = 2});
  MetadataReader reader({admin.verification_point()});
  auto manifest = [&] {
    auto read = reader.manifest(cloud.get(ibbe::system::index_path(gid)), gid,
                                nullptr);
    EXPECT_TRUE(read.ok());
    return read.record;
  };
  auto snapshot = [&] {
    auto m = manifest();
    CachedIndex view;
    for (const auto& ref : m.shards) {
      auto read =
          reader.shard(cloud.get(ibbe::system::shard_path(gid, ref.sid)), ref);
      EXPECT_TRUE(read.ok());
      for (auto& [pid, members] : read.record.partitions) {
        view.add_partition(pid, std::move(members));
      }
    }
    view.counter = m.freshness.counter;
    view.log_head = m.log_head;
    return view;
  };

  // [user0..3] [user4..7] | [user8..11] [user12 user13]
  admin.create_group(gid, make_users(14));
  CachedIndex folded = snapshot();
  const std::vector<std::function<void()>> commits = {
      [&] { admin.add_user(gid, "x0"); },  // into the one open partition
      [&] { admin.add_user(gid, "x1"); },
      [&] { admin.add_user(gid, "x2"); },  // overflows into a new partition
      [&] { admin.remove_user(gid, "x2"); },  // empties it
      [&] {  // one member from each of two shards
        admin.remove_users(gid, std::vector<Identity>{"user0", "user8"});
      },
      [&] {  // empties most of the second shard: shard-local repartition
        admin.remove_users(gid,
                           std::vector<Identity>{"user9", "user12", "user13"});
      },
  };
  for (std::size_t c = 0; c < commits.size(); ++c) {
    commits[c]();
    const auto head = manifest().freshness.counter;
    ASSERT_EQ(head, folded.counter + 1) << "commit " << c;
    auto raw = cloud.get(ibbe::system::delta_path(gid, head));
    ASSERT_TRUE(raw.has_value()) << "commit " << c;
    ASSERT_TRUE(folded.apply(IndexDelta::from_bytes(*raw))) << "commit " << c;
    EXPECT_EQ(folded.partitions(), snapshot().partitions()) << "commit " << c;
    EXPECT_EQ(folded.member_count(), admin.group_size(gid)) << "commit " << c;
  }
  EXPECT_EQ(admin.stats().shard_repartitions, 1u);
  EXPECT_EQ(admin.stats().repartitions, 0u);
}

// ---------------------------------------------------------------------------
// Audit splice across the delta chain
// ---------------------------------------------------------------------------

TEST_F(ShardDeltaFixture, AuditCatchesLogSpliceAcrossDeltaChain) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3, .log_operations = true});
  admin.create_group(gid, make_users(6));
  admin.add_user(gid, "x");
  ASSERT_TRUE(admin.audit_group_log(gid).ok);

  // Snapshot the op-log mid-chain, land one more delta commit (whose
  // manifest anchors the new log head), then roll the cloud's op-log back to
  // the snapshot. The log alone is a perfectly valid chain — only the
  // anchor the delta-carrying manifest committed exposes the splice.
  auto old_log = cloud.get("groups/" + gid + "/oplog");
  ASSERT_TRUE(old_log.has_value());
  admin.remove_user(gid, "user1");
  ASSERT_TRUE(admin.audit_group_log(gid).ok);

  (void)cloud.put("groups/" + gid + "/oplog", *old_log);
  auto audit = admin.audit_group_log(gid);
  EXPECT_FALSE(audit.ok);
  EXPECT_FALSE(audit.failure.empty());
}

// ---------------------------------------------------------------------------
// Scale: O(1) lookups and O(1) objects per mutation
// ---------------------------------------------------------------------------

TEST(CachedIndexScale, MillionMemberLookupIsConstantTime) {
  // 1000 partitions x 1000 members. The seed's per-fetch linear scan was
  // O(total members); the hash map makes membership O(1) after one lazy
  // build. 200k lookups through a linear scan would take hours — the bound
  // below is generous for the map yet catches any scan regression.
  CachedIndex view;
  std::size_t uid = 0;
  for (std::uint64_t pid = 0; pid < 1000; ++pid) {
    std::vector<Identity> members;
    members.reserve(1000);
    for (int i = 0; i < 1000; ++i) members.push_back(numbered("u", uid++));
    view.add_partition(pid, std::move(members));
  }
  ASSERT_EQ(view.member_count(), 1'000'000u);

  ASSERT_EQ(view.find_user("u0"), std::optional<std::uint64_t>(0));  // builds map

  auto start = std::chrono::steady_clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 200'000; ++i) {
    // Alternate hits (stride over the whole range) and guaranteed misses.
    if (i % 2 == 0) {
      hits += view.find_user(numbered("u", (i * 4999) % 1'000'000))
                  .has_value();
    } else {
      hits += view.find_user(numbered("nobody", i)).has_value();
    }
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(hits, 100'000u);
  EXPECT_LT(elapsed.count(), 2000) << "find_user is no longer O(1)";

  EXPECT_EQ(view.find_user("u999999"), std::optional<std::uint64_t>(999));
}

TEST_F(ShardDeltaFixture, MutationUploadsSameObjectCountRegardlessOfScale) {
  ibbe::cloud::CloudStore cloud;
  auto admin = admin_on(cloud, {.partition_size = 3, .shard_partitions = 2});
  admin.create_group("small", make_users(12));   //  4 partitions
  admin.create_group("big", make_users(48));     // 16 partitions

  auto puts = [&] { return cloud.stats().puts; };

  auto p0 = puts();
  admin.remove_user("small", "user5");
  auto small_remove = puts() - p0;
  admin.remove_user("big", "user5");
  auto big_remove = puts() - p0 - small_remove;
  // A revocation touches the host shard, the rotated cipher bundle, the
  // fresh sealed gk, the delta, the manifest and the gossip note — the same
  // object count whether the group has 4 partitions or 16.
  EXPECT_EQ(small_remove, big_remove);

  auto p1 = puts();
  admin.add_user("small", "fresh-a");
  auto small_add = puts() - p1;
  admin.add_user("big", "fresh-b");
  auto big_add = puts() - p1 - small_add;
  EXPECT_EQ(small_add, big_add);
  EXPECT_LE(small_add, small_remove);  // adds skip the bundle + gk rewrite
}

}  // namespace

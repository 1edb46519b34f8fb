// Tests for the future-work extensions (paper §VIII): batch revocation,
// multi-administrator coordination, the audit log, and dynamic partition
// sizing.
#include <gtest/gtest.h>

#include "crypto/gcm.h"
#include "system/admin.h"
#include "system/advisor.h"
#include "system/client.h"
#include "system/oplog.h"

namespace {

using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::ClientApi;
using ibbe::system::LogOp;
using ibbe::system::MembershipLog;
using ibbe::system::PartitionAdvisor;
using ibbe::util::Bytes;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

// ------------------------------------------------------------ batch removal

struct BatchFixture : ::testing::Test {
  BatchFixture() : rng(3), keys(ibbe::core::setup(16, rng)) {}

  ibbe::core::UserSecretKey usk(const Identity& id) {
    return ibbe::core::extract_user_key(keys.msk, id);
  }

  ibbe::crypto::Drbg rng;
  ibbe::core::SystemKeys keys;
};

TEST_F(BatchFixture, CoreBatchRemovalMatchesSequential) {
  auto users = make_users(8);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);

  std::vector<Identity> leavers = {users[1], users[4], users[6]};
  auto batch = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct,
                                                 leavers, rng);

  // Sequential removals land on the same C3 (same receiver set).
  auto seq = enc;
  for (const auto& id : leavers) {
    seq = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, seq.ct,
                                            std::span(&id, 1), rng);
  }
  EXPECT_EQ(batch.ct.c3, seq.ct.c3);

  std::vector<Identity> remaining = {users[0], users[2], users[3],
                                     users[5], users[7]};
  EXPECT_EQ(batch.ct.c3, ibbe::core::compute_c3_public(keys.pk, remaining));
  for (const auto& id : remaining) {
    auto bk = ibbe::core::decrypt(keys.pk, usk(id), remaining, batch.ct);
    ASSERT_TRUE(bk.has_value()) << id;
    EXPECT_EQ(*bk, batch.bk);
  }
  for (const auto& id : leavers) {
    EXPECT_FALSE(
        ibbe::core::decrypt(keys.pk, usk(id), remaining, batch.ct).has_value());
  }
}

TEST_F(BatchFixture, EmptyBatchIsRekey) {
  auto users = make_users(3);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto batch =
      ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct, {}, rng);
  EXPECT_EQ(batch.ct.c3, enc.ct.c3);  // membership unchanged
  EXPECT_NE(batch.bk, enc.bk);        // but re-keyed
}

TEST(BatchEnclave, OneGkRotationForWholeBatch) {
  ibbe::sgx::EnclavePlatform platform("batch-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  std::vector<std::vector<Identity>> partitions = {make_users(4, 0),
                                                   make_users(4, 4)};
  const std::vector<std::uint64_t> pids = {1, 2};
  auto group = enclave.ecall_create_group(pids, partitions);

  // Revoke one user from each partition in a single ECALL.
  std::vector<ibbe::enclave::IbbeEnclave::BatchRemovalSpec> hosts = {
      {{pids[0], group.partitions[0].ct, group.records[0]}, {"user0"}},
      {{pids[1], group.partitions[1].ct, group.records[1]}, {"user5"}},
  };
  auto before = enclave.ecall_count();
  auto result = enclave.ecall_remove_users(hosts, {});
  EXPECT_EQ(enclave.ecall_count(), before + 1);
  ASSERT_EQ(result.partitions.size(), 2u);

  auto unwrap = [&](const Identity& id, std::span<const Identity> members,
                    const ibbe::enclave::PartitionCiphertext& pc)
      -> std::optional<Bytes> {
    auto usk = enclave.ecall_extract_user_key(id);
    auto bk = ibbe::core::decrypt(enclave.public_key(), usk, members, pc.ct);
    if (!bk) return std::nullopt;
    ibbe::crypto::Aes256Gcm gcm(bk->hash());
    return gcm.open(pc.nonce, pc.wrapped_gk);
  };

  std::vector<Identity> p0 = {"user1", "user2", "user3"};
  std::vector<Identity> p1 = {"user4", "user6", "user7"};
  auto gk0 = unwrap("user1", p0, result.partitions[0]);
  auto gk1 = unwrap("user4", p1, result.partitions[1]);
  ASSERT_TRUE(gk0.has_value());
  ASSERT_TRUE(gk1.has_value());
  EXPECT_EQ(*gk0, *gk1);  // one gk for the whole batch
  EXPECT_FALSE(unwrap("user0", p0, result.partitions[0]).has_value());
  EXPECT_FALSE(unwrap("user5", p1, result.partitions[1]).has_value());
}

struct SystemBatchFixture : ::testing::Test {
  SystemBatchFixture()
      : platform("box"),
        enclave(platform, 4),
        rng(5),
        admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
              AdminConfig{.partition_size = 4}, 6) {}

  ClientApi client(const Identity& id) {
    return ClientApi(cloud, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     admin.verification_point());
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng;
  AdminApi admin;
};

TEST_F(SystemBatchFixture, AdminBatchRemovalRevokesAllAtOnce) {
  auto users = make_users(10);
  admin.create_group("g", users);
  auto before = client(users[0]).fetch_group_key("g");
  ASSERT_TRUE(before.has_value());

  std::vector<Identity> leavers = {users[1], users[5], users[9]};
  auto ecalls_before = enclave.ecall_count();
  admin.remove_users("g", leavers);
  // One gk-rotation enclave round for the whole batch; the other two
  // crossings are the constant-size freshness attest/confirm pair around the
  // index CAS (docs/fault_model.md), not per-user work.
  EXPECT_EQ(enclave.ecall_count(), ecalls_before + 3);
  EXPECT_EQ(admin.group_size("g"), 7u);

  auto after = client(users[0]).fetch_group_key("g");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  for (const auto& id : leavers) {
    EXPECT_FALSE(client(id).fetch_group_key("g").has_value()) << id;
  }
  for (const auto& id : {users[2], users[4], users[8]}) {
    EXPECT_EQ(client(id).fetch_group_key("g"), after) << id;
  }
}

TEST_F(SystemBatchFixture, BatchRemovalDropsEmptiedPartitions) {
  admin.create_group("g", make_users(8));  // two full partitions of 4
  ASSERT_EQ(admin.partition_count("g"), 2u);
  // Empty the first partition entirely.
  admin.remove_users("g", make_users(4));
  EXPECT_EQ(admin.partition_count("g"), 1u);
  EXPECT_EQ(admin.group_size("g"), 4u);
}

TEST_F(SystemBatchFixture, RepeatedIdInBatchIsRemovedOnce) {
  admin.create_group("g", make_users(8));  // two full partitions of 4
  std::vector<Identity> leavers = {"user1", "user1"};
  admin.remove_users("g", leavers);
  EXPECT_EQ(admin.stats().users_removed, 1u);
  EXPECT_EQ(admin.group_size("g"), 7u);
  EXPECT_FALSE(client("user1").fetch_group_key("g").has_value());
  // The rest of user1's partition keeps its members and the key.
  for (const auto& id : {"user0", "user2", "user3"}) {
    EXPECT_TRUE(client(id).fetch_group_key("g").has_value()) << id;
  }
}

TEST_F(SystemBatchFixture, BatchOfUnknownUsersIsNoOp) {
  admin.create_group("g", make_users(4));
  auto before = client("user0").fetch_group_key("g");
  std::vector<Identity> ghosts = {"ghost1", "ghost2"};
  admin.remove_users("g", ghosts);
  EXPECT_EQ(client("user0").fetch_group_key("g"), before);
}

// ------------------------------------------------------------- multi-admin

struct MultiAdminFixture : ::testing::Test {
  MultiAdminFixture()
      : platform("shared-admin-server"),
        enclave(platform, 8),
        rng(7),
        key_a(ibbe::pki::EcdsaKeyPair::generate(rng)),
        key_b(ibbe::pki::EcdsaKeyPair::generate(rng)) {
    AdminConfig config_a;
    config_a.partition_size = 4;
    config_a.admin_nonce = 1;
    config_a.peer_verification_keys = {ibbe::ec::p256_to_bytes(key_b.public_key())};
    admin_a = std::make_unique<AdminApi>(enclave, cloud, key_a, config_a, 8);

    AdminConfig config_b = config_a;
    config_b.admin_nonce = 2;
    config_b.peer_verification_keys = {ibbe::ec::p256_to_bytes(key_a.public_key())};
    admin_b = std::make_unique<AdminApi>(enclave, cloud, key_b, config_b, 9);
  }

  ClientApi client(const Identity& id) {
    return ClientApi(cloud, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     {key_a.public_key(), key_b.public_key()});
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng;
  ibbe::pki::EcdsaKeyPair key_a;
  ibbe::pki::EcdsaKeyPair key_b;
  std::unique_ptr<AdminApi> admin_a;
  std::unique_ptr<AdminApi> admin_b;
};

TEST_F(MultiAdminFixture, PeerSyncsGroupFromCloud) {
  admin_a->create_group("g", make_users(6));
  admin_b->sync_from_cloud("g");
  EXPECT_EQ(admin_b->group_size("g"), 6u);
  EXPECT_TRUE(admin_b->is_member("g", "user3"));
}

TEST_F(MultiAdminFixture, ConcurrentUpdatesConvergeViaCas) {
  admin_a->create_group("g", make_users(6));
  admin_b->sync_from_cloud("g");

  // B publishes first; A's cached index version is now stale.
  admin_b->add_user("g", "bob-side");
  admin_a->add_user("g", "alice-side");  // conflict -> resync -> retry

  EXPECT_GE(admin_a->stats().cas_conflicts, 1u);
  // A's final view contains both updates.
  EXPECT_TRUE(admin_a->is_member("g", "bob-side"));
  EXPECT_TRUE(admin_a->is_member("g", "alice-side"));
  EXPECT_EQ(admin_a->group_size("g"), 8u);

  // Both joiners can derive the key; metadata verifies under either admin key.
  EXPECT_TRUE(client("bob-side").fetch_group_key("g").has_value());
  EXPECT_TRUE(client("alice-side").fetch_group_key("g").has_value());
}

TEST_F(MultiAdminFixture, PeerRevocationIsPickedUp) {
  admin_a->create_group("g", make_users(6));
  admin_b->sync_from_cloud("g");

  admin_b->remove_user("g", "user2");  // rotates gk, mirrors sealed blob
  admin_a->add_user("g", "late");      // conflicts, resyncs, then succeeds

  EXPECT_FALSE(admin_a->is_member("g", "user2"));
  EXPECT_FALSE(client("user2").fetch_group_key("g").has_value());
  auto a = client("user0").fetch_group_key("g");
  auto b = client("late").fetch_group_key("g");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a, b);
}

TEST_F(MultiAdminFixture, CopyOnWriteKeepsCloudConsistent) {
  admin_a->create_group("g", make_users(4));  // full partition
  admin_b->sync_from_cloud("g");
  admin_a->add_user("g", "a-new");  // A creates a second partition
  // B's first attempt creates an orphan partition file (stale view), then the
  // CAS conflict triggers a re-sync; the retry joins A's open partition and
  // the garbage collector sweeps the orphan.
  admin_b->add_user("g", "b-new");

  admin_a->sync_from_cloud("g");
  EXPECT_TRUE(admin_a->is_member("g", "a-new"));
  EXPECT_TRUE(admin_a->is_member("g", "b-new"));
  EXPECT_EQ(admin_a->group_size("g"), 6u);

  // Exactly the live shards remain on the cloud — no stale copies, no
  // orphans from the failed attempt.
  std::size_t shard_files = cloud.list("groups/g/s").size();
  EXPECT_EQ(shard_files, admin_a->shard_count("g"));
  EXPECT_EQ(cloud.list("groups/g/").size(), admin_a->cloud_object_count("g"));

  // And every member still converges on one key.
  auto a = client("a-new").fetch_group_key("g");
  auto b = client("b-new").fetch_group_key("g");
  auto c = client("user0").fetch_group_key("g");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(MultiAdminFixture, SyncRejectsUntrustedSignatures) {
  admin_a->create_group("g", make_users(4));
  // A rogue (unknown key) rewrites the index.
  ibbe::crypto::Drbg rogue_rng(99);
  auto rogue = ibbe::pki::EcdsaKeyPair::generate(rogue_rng);
  auto env = ibbe::system::SignedEnvelope::sign(rogue, Bytes{1, 2, 3});
  cloud.put("groups/g/index", env.to_bytes());
  EXPECT_THROW(admin_b->sync_from_cloud("g"), ibbe::util::IntegrityError);
}

// ---------------------------------------------------------------- audit log

TEST(MembershipLogTest, AppendAndAuditCleanChain) {
  ibbe::crypto::Drbg rng(11);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog log;
  log.append(LogOp::create_group, "members=3", "alice-admin", key);
  log.append(LogOp::add_user, "dave", "alice-admin", key);
  log.append(LogOp::remove_user, "bob", "alice-admin", key);

  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};
  auto result = log.audit(keys);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(log.size(), 3u);
}

TEST(MembershipLogTest, SerializationRoundTrip) {
  ibbe::crypto::Drbg rng(12);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog log;
  log.append(LogOp::create_group, "members=2", "a", key);
  log.append(LogOp::add_user, "x", "a", key);
  auto back = MembershipLog::from_bytes(log.to_bytes());
  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};
  EXPECT_TRUE(back.audit(keys).ok);
  EXPECT_EQ(back.size(), 2u);
}

TEST(MembershipLogTest, AuditDetectsTampering) {
  ibbe::crypto::Drbg rng(13);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog log;
  log.append(LogOp::create_group, "members=2", "a", key);
  log.append(LogOp::add_user, "mallory", "a", key);
  log.append(LogOp::remove_user, "mallory", "a", key);
  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};

  // Drop the revocation (truncation is visible only via external anchoring,
  // but *internal* splices are caught): replace entry 1's subject.
  auto bytes = log.to_bytes();
  auto tampered = MembershipLog::from_bytes(bytes);
  // Tamper by rebuilding from edited serialization: flip a subject byte.
  auto edited = bytes;
  // find "mallory" and corrupt it
  for (std::size_t i = 0; i + 7 <= edited.size(); ++i) {
    if (std::equal(edited.begin() + static_cast<std::ptrdiff_t>(i),
                   edited.begin() + static_cast<std::ptrdiff_t>(i + 7),
                   reinterpret_cast<const std::uint8_t*>("mallory"))) {
      edited[i] = 'M';
      break;
    }
  }
  auto forged = MembershipLog::from_bytes(edited);
  auto result = forged.audit(keys);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.first_bad_index, 1u);
}

TEST(MembershipLogTest, AuditDetectsUnknownSigner) {
  ibbe::crypto::Drbg rng(14);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto rogue = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog log;
  log.append(LogOp::create_group, "m=1", "a", key);
  log.append(LogOp::add_user, "evil", "a", rogue);  // rogue-signed entry
  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};
  auto result = log.audit(keys);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.first_bad_index, 1u);
}

TEST(AdminLogIntegration, EveryOperationIsLoggedAndAuditable) {
  ibbe::sgx::EnclavePlatform platform("logged");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(15);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  AdminConfig config;
  config.partition_size = 4;
  config.log_operations = true;
  config.admin_name = "ops@example.com";
  AdminApi admin(enclave, cloud, key, config, 16);

  admin.create_group("g", make_users(5));
  admin.add_user("g", "newbie");
  admin.remove_user("g", "user1");
  admin.add_user("g", "newbie");  // no-op: must NOT be logged
  // Empties the second partition, so no re-partition entry follows.
  admin.remove_users("g", std::vector<Identity>{"user4", "newbie", "ghost"});

  // The log is mirrored to the cloud and audits cleanly.
  auto raw = cloud.get(ibbe::system::oplog_path("g"));
  ASSERT_TRUE(raw.has_value());
  auto log = MembershipLog::from_bytes(*raw);
  EXPECT_EQ(log.size(), 4u);
  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};
  EXPECT_TRUE(log.audit(keys).ok);
  EXPECT_EQ(log.entries()[1].op, LogOp::add_user);
  EXPECT_EQ(log.entries()[1].subject, "newbie");
  // A single revocation is a batch of one but is logged under the user's id;
  // a batch is logged by the count it actually removed.
  EXPECT_EQ(log.entries()[2].op, LogOp::remove_user);
  EXPECT_EQ(log.entries()[2].subject, "user1");
  EXPECT_EQ(log.entries()[2].admin, "ops@example.com");
  EXPECT_EQ(log.entries()[3].op, LogOp::remove_user);
  EXPECT_EQ(log.entries()[3].subject, "batch=2");
}

// ------------------------------------------------------- partition advisor

TEST(Advisor, NoRemovalsMeansSmallestPartitions) {
  PartitionAdvisor advisor;
  advisor.record_add();
  advisor.record_decrypt();
  EXPECT_EQ(advisor.recommend(10000, 64, 4096), 64u);
}

TEST(Advisor, NoDecryptsMeansLargestPartitions) {
  PartitionAdvisor advisor;
  advisor.record_remove();
  EXPECT_EQ(advisor.recommend(10000, 64, 4096), 4096u);
}

TEST(Advisor, RemovalHeavyBeatsDecryptHeavy) {
  PartitionAdvisor removal_heavy;
  for (int i = 0; i < 100; ++i) removal_heavy.record_remove();
  removal_heavy.record_decrypt();

  PartitionAdvisor decrypt_heavy;
  decrypt_heavy.record_remove();
  for (int i = 0; i < 100; ++i) decrypt_heavy.record_decrypt();

  auto m_removal = removal_heavy.recommend(10000, 16, 100000);
  auto m_decrypt = decrypt_heavy.recommend(10000, 16, 100000);
  EXPECT_GT(m_removal, m_decrypt);
}

TEST(Advisor, MatchesClosedForm) {
  PartitionAdvisor::CostModel model;
  model.rekey_seconds = 4e-3;
  model.decrypt_seconds_per_member = 1e-3;
  PartitionAdvisor advisor(model);
  for (int i = 0; i < 10; ++i) advisor.record_remove();
  for (int i = 0; i < 40; ++i) advisor.record_decrypt();
  // m* = sqrt(10 * 1000 * 4e-3 / (40 * 1e-3)) = sqrt(1000) ~ 32.
  EXPECT_NEAR(static_cast<double>(advisor.recommend(1000, 1, 100000)), 31.6, 1.0);
}

TEST(Advisor, ClampsAndResets) {
  PartitionAdvisor advisor;
  for (int i = 0; i < 5; ++i) advisor.record_remove();
  advisor.record_decrypt();
  EXPECT_LE(advisor.recommend(100, 8, 64), 64u);
  EXPECT_GE(advisor.recommend(100, 8, 64), 8u);
  advisor.reset_window();
  EXPECT_EQ(advisor.removes(), 0u);
  EXPECT_EQ(advisor.recommend(100, 8, 64), 8u);  // back to "no removals"
}

TEST(AdaptivePartitioning, RepartitionAdoptsAdvisorRecommendation) {
  ibbe::sgx::EnclavePlatform platform("adaptive");
  ibbe::enclave::IbbeEnclave enclave(platform, 64);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(17);
  AdminConfig config;
  config.partition_size = 8;
  config.adaptive_partitioning = true;
  config.min_partition_size = 4;
  AdminApi admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng), config, 18);

  admin.create_group("g", make_users(24));  // 3 partitions of 8
  EXPECT_EQ(admin.partition_size_target("g"), 8u);

  // Removal-heavy window with no decrypt pressure: the advisor recommends
  // the maximum (the enclave bound, 64).
  for (const auto& id : {"user0", "user1", "user2", "user8", "user9", "user10"}) {
    admin.remove_user("g", id);
  }
  ASSERT_GT(admin.stats().repartitions, 0u);
  EXPECT_EQ(admin.partition_size_target("g"), 64u);
  // 18 survivors in one big partition.
  EXPECT_EQ(admin.partition_count("g"), 1u);
}

TEST(AdaptivePartitioning, DecryptPressureShrinksPartitions) {
  ibbe::sgx::EnclavePlatform platform("adaptive2");
  ibbe::enclave::IbbeEnclave enclave(platform, 64);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(19);
  AdminConfig config;
  config.partition_size = 8;
  config.adaptive_partitioning = true;
  config.min_partition_size = 4;
  AdminApi admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng), config, 20);

  admin.create_group("g", make_users(24));
  // Overwhelming decrypt pressure from the client fleet.
  for (int i = 0; i < 100000; ++i) admin.advisor().record_decrypt();
  for (const auto& id : {"user0", "user1", "user2", "user8", "user9", "user10"}) {
    admin.remove_user("g", id);
  }
  ASSERT_GT(admin.stats().repartitions, 0u);
  EXPECT_EQ(admin.partition_size_target("g"), 4u);
}

}  // namespace

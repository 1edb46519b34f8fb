#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "system/admin.h"
#include "system/client.h"
#include "system/ibbe_scheme.h"
#include "system/metadata.h"
#include "test_util.h"
#include "util/hex.h"

namespace {

using namespace std::chrono_literals;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::ClientApi;
using ibbe::system::GroupId;
using ibbe::util::Bytes;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

struct SystemFixture : ::testing::Test {
  SystemFixture()
      : platform("admin-box"),
        enclave(platform, 8),
        rng(11),
        admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
              AdminConfig{.partition_size = 3},
              /*seed=*/5) {}

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
  const GroupId gid = "team-alpha";
};

TEST_F(SystemFixture, CreateGroupSplitsIntoFixedPartitions) {
  admin.create_group(gid, make_users(8));
  EXPECT_EQ(admin.group_size(gid), 8u);
  EXPECT_EQ(admin.partition_count(gid), 3u);  // 3+3+2 under |p|=3
  // Cloud layout: exactly the objects the admin accounts for — manifest,
  // sealed gk, the member-list shards, the cipher bundle (create is a
  // snapshot barrier: no overlays, no retained deltas).
  EXPECT_EQ(cloud.list("groups/" + gid + "/").size(),
            admin.cloud_object_count(gid));
  EXPECT_EQ(cloud.list("groups/" + gid + "/s").size(), admin.shard_count(gid));
}

TEST_F(SystemFixture, EveryMemberDerivesTheSameKey) {
  auto users = make_users(7);
  admin.create_group(gid, users);
  std::optional<Bytes> seen;
  for (const auto& id : users) {
    auto c = client(id);
    auto gk = c.fetch_group_key(gid);
    ASSERT_TRUE(gk.has_value()) << id;
    if (!seen) seen = *gk;
    EXPECT_EQ(*gk, *seen) << id;
  }
}

TEST_F(SystemFixture, NonMemberCannotDeriveKey) {
  admin.create_group(gid, make_users(4));
  auto c = client("outsider");
  EXPECT_FALSE(c.fetch_group_key(gid).has_value());
}

TEST_F(SystemFixture, AddUserGrantsAccessWithoutRotation) {
  auto users = make_users(4);
  admin.create_group(gid, users);
  auto before = client(users[0]).fetch_group_key(gid);

  admin.add_user(gid, "late-joiner");
  auto joined = client("late-joiner").fetch_group_key(gid);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(*joined, *before);  // adds do not re-key (paper semantics)
  EXPECT_EQ(admin.group_size(gid), 5u);
}

TEST_F(SystemFixture, AddOverflowsIntoNewPartition) {
  admin.create_group(gid, make_users(6));  // two full partitions of 3
  EXPECT_EQ(admin.partition_count(gid), 2u);
  admin.add_user(gid, "overflow");
  EXPECT_EQ(admin.partition_count(gid), 3u);
  EXPECT_TRUE(client("overflow").fetch_group_key(gid).has_value());
}

TEST_F(SystemFixture, DuplicateAddIsIdempotent) {
  admin.create_group(gid, make_users(3));
  admin.add_user(gid, "user1");
  EXPECT_EQ(admin.group_size(gid), 3u);
}

TEST_F(SystemFixture, RemoveRevokesAndRotates) {
  auto users = make_users(6);
  admin.create_group(gid, users);
  auto before = client(users[0]).fetch_group_key(gid);
  ASSERT_TRUE(before.has_value());

  admin.remove_user(gid, users[4]);
  EXPECT_EQ(admin.group_size(gid), 5u);
  EXPECT_FALSE(admin.is_member(gid, users[4]));

  auto revoked = client(users[4]).fetch_group_key(gid);
  EXPECT_FALSE(revoked.has_value());

  // Remaining members (across *all* partitions) see one fresh key.
  auto after = client(users[0]).fetch_group_key(gid);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  for (const auto& id : {users[1], users[2], users[3], users[5]}) {
    auto gk = client(id).fetch_group_key(gid);
    ASSERT_TRUE(gk.has_value()) << id;
    EXPECT_EQ(*gk, *after) << id;
  }
}

/// A group's committed state as a client sees it: every partition's members
/// and current entry (bundle, or the overlay that supersedes it), plus the
/// stored bundle and overlay bytes.
struct Committed {
  ibbe::system::GroupManifest manifest;
  std::map<ibbe::system::PartitionId, std::vector<Identity>> members;
  std::map<ibbe::system::PartitionId, ibbe::enclave::PartitionCiphertext> ciphers;
  Bytes bundle_bytes;
  std::map<ibbe::system::PartitionId, Bytes> overlay_bytes;
};

Committed read_committed(const ibbe::cloud::CloudStore& cloud,
                         const AdminApi& admin, const GroupId& gid) {
  using namespace ibbe::system;
  const MetadataReader reader({admin.verification_point()});
  Committed out;
  auto m = reader.manifest(cloud.get(index_path(gid)), gid, nullptr);
  EXPECT_TRUE(m.ok());
  out.manifest = m.record;
  for (const auto& ref : out.manifest.shards) {
    auto shard = reader.shard(cloud.get(shard_path(gid, ref.sid)), ref);
    EXPECT_TRUE(shard.ok());
    for (auto& [pid, ids] : shard.record.partitions) out.members[pid] = ids;
  }
  out.bundle_bytes =
      *cloud.get(cipher_bundle_path(gid, out.manifest.cipher_set));
  auto bundle = reader.bundle(out.bundle_bytes, out.manifest);
  EXPECT_TRUE(bundle.ok());
  for (const auto& [pid, cipher] : bundle.record.entries) {
    out.ciphers[pid] = cipher;
  }
  for (const auto& [pid, oid] : out.manifest.overlays) {
    out.overlay_bytes[pid] = *cloud.get(cipher_overlay_path(gid, oid));
    auto overlay = reader.overlay(out.overlay_bytes[pid], out.manifest, pid);
    EXPECT_TRUE(overlay.ok());
    out.ciphers[pid] = overlay.record.cipher;
  }
  return out;
}

/// Whether `key` opens the wrapped group key of `pc`.
bool opens(std::span<const std::uint8_t> key,
           const ibbe::enclave::PartitionCiphertext& pc) {
  return ibbe::crypto::Aes256Gcm(key).open(pc.nonce, pc.wrapped_gk).has_value();
}

/// Whether `usk`, claiming membership of `members` (plus itself), opens
/// the wrapped group key of `pc`.
bool usk_opens(const ibbe::core::PublicKey& pk,
               const ibbe::core::UserSecretKey& usk,
               std::vector<Identity> members,
               const ibbe::enclave::PartitionCiphertext& pc) {
  if (std::find(members.begin(), members.end(), usk.id) == members.end()) {
    members.push_back(usk.id);
  }
  auto bk = ibbe::core::decrypt(pk, usk, members, pc.ct);
  return bk && opens(bk->hash(), pc);
}

TEST_F(SystemFixture, RevokedMemberOpensNoEntryOfThePostRevocationBundle) {
  // Three partitions of 3; user4 sits in the second. Before its removal it
  // can compute its own partition's bk. The other partitions are only
  // re-wrapped, under keys it never held.
  admin.create_group(gid, make_users(9));
  const auto before = read_committed(cloud, admin, gid);
  const Identity revoked = "user4";
  const auto usk = enclave.ecall_extract_user_key(revoked);
  std::optional<ibbe::pairing::Gt> old_bk;
  for (const auto& [pid, ids] : before.members) {
    auto bk = ibbe::core::decrypt(enclave.public_key(), usk, ids,
                                  before.ciphers.at(pid).ct);
    if (bk) old_bk = bk;
  }
  ASSERT_TRUE(old_bk.has_value());

  admin.remove_user(gid, revoked);
  const auto after = read_committed(cloud, admin, gid);
  ASSERT_EQ(after.ciphers.size(), 3u);
  std::size_t unchanged = 0;
  for (const auto& [pid, pc] : after.ciphers) {
    EXPECT_FALSE(opens(old_bk->hash(), pc)) << pid;
    EXPECT_FALSE(usk_opens(enclave.public_key(), usk, after.members.at(pid), pc))
        << pid;
    if (pc.ct.to_bytes() == before.ciphers.at(pid).ct.to_bytes()) ++unchanged;
  }
  EXPECT_EQ(unchanged, 2u);  // only the host was re-keyed
}

TEST_F(SystemFixture, JoinerOpensNoEntryOfAnEpochBeforeItJoined) {
  // [u0 u1 u2] [u3 u4]: removing the whole first partition drops it and
  // only re-wraps the second, which "late" then joins.
  admin.create_group(gid, make_users(5));
  std::vector<Committed> history = {read_committed(cloud, admin, gid)};
  admin.remove_users(gid, make_users(3));
  history.push_back(read_committed(cloud, admin, gid));
  ASSERT_EQ(admin.partition_count(gid), 1u);

  const Identity joiner = "late";
  admin.add_user(gid, joiner);
  const auto now = read_committed(cloud, admin, gid);
  const auto usk = enclave.ecall_extract_user_key(joiner);
  std::optional<ibbe::system::PartitionId> joined;
  for (const auto& [pid, ids] : now.members) {
    if (std::find(ids.begin(), ids.end(), joiner) != ids.end()) joined = pid;
  }
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(now.members.at(*joined).size(), 3u);  // joined [u3 u4]
  // Its partition was only re-wrapped by the revocation: same C1-C3.
  EXPECT_EQ(history[1].ciphers.at(*joined).ct.to_bytes(),
            history[0].ciphers.at(*joined).ct.to_bytes());
  EXPECT_TRUE(usk_opens(enclave.public_key(), usk, now.members.at(*joined),
                        now.ciphers.at(*joined)));

  for (std::size_t epoch = 0; epoch < history.size(); ++epoch) {
    for (const auto& [pid, pc] : history[epoch].ciphers) {
      const auto& ids = history[epoch].members.at(pid);
      EXPECT_FALSE(usk_opens(enclave.public_key(), usk, ids, pc))
          << "epoch " << epoch << ", pid " << pid;
    }
  }
}

/// Replaces the one occurrence of `from` in `bytes` with `to` (same size).
Bytes splice(Bytes bytes, const Bytes& from, const Bytes& to) {
  EXPECT_EQ(from.size(), to.size());
  auto at = std::search(bytes.begin(), bytes.end(), from.begin(), from.end());
  EXPECT_NE(at, bytes.end());
  if (at != bytes.end()) std::copy(to.begin(), to.end(), at);
  return bytes;
}

TEST_F(SystemFixture, SplicedPreviousEpochEntryIsUnauthenticated) {
  // A re-wrapped partition keeps C1-C3, so its previous-epoch entry (the old
  // y, under the same bk) decrypts to the previous gk. Only the signature
  // over the bundle and overlay tells a client the splice apart.
  using ibbe::system::ReadVerdict;
  const ibbe::system::MetadataReader reader({admin.verification_point()});
  admin.create_group(gid, make_users(6));  // [u0 u1 u2] [u3 u4 u5]
  const auto first = read_committed(cloud, admin, gid);
  admin.remove_user(gid, "user0");
  const auto second = read_committed(cloud, admin, gid);
  ibbe::system::PartitionId rewrapped = 0;
  for (const auto& [pid, ids] : second.members) {
    if (ids.size() == 3) rewrapped = pid;
  }
  const auto& old_entry = first.ciphers.at(rewrapped);
  const auto& new_entry = second.ciphers.at(rewrapped);
  ASSERT_EQ(old_entry.ct.to_bytes(), new_entry.ct.to_bytes());
  ASSERT_NE(old_entry.wrapped_gk, new_entry.wrapped_gk);

  const auto bundle = splice(second.bundle_bytes, new_entry.to_bytes(),
                             old_entry.to_bytes());
  EXPECT_EQ(reader.bundle(bundle, second.manifest).verdict,
            ReadVerdict::unauthenticated);
  EXPECT_EQ(reader.bundle_entry(bundle, second.manifest, rewrapped).verdict,
            ReadVerdict::unauthenticated);

  // A join into the host partition publishes an overlay; splice that
  // partition's previous-epoch entry into it.
  admin.add_user(gid, "late");
  const auto third = read_committed(cloud, admin, gid);
  ASSERT_EQ(third.overlay_bytes.size(), 1u);
  const auto& [host, overlay_bytes] = *third.overlay_bytes.begin();
  const auto overlay = splice(overlay_bytes, third.ciphers.at(host).to_bytes(),
                              second.ciphers.at(host).to_bytes());
  EXPECT_EQ(reader.overlay(overlay, third.manifest, host).verdict,
            ReadVerdict::unauthenticated);
}

TEST_F(SystemFixture, RemoveUnknownUserIsNoOp) {
  admin.create_group(gid, make_users(3));
  auto before = client("user0").fetch_group_key(gid);
  admin.remove_user(gid, "ghost");
  EXPECT_EQ(client("user0").fetch_group_key(gid), before);
}

TEST_F(SystemFixture, EmptiedPartitionIsDropped) {
  admin.create_group(gid, make_users(3));
  admin.add_user(gid, "solo");  // new partition with a single member
  ASSERT_EQ(admin.partition_count(gid), 2u);
  admin.remove_user(gid, "solo");
  EXPECT_EQ(admin.partition_count(gid), 1u);
  // No stale objects: the footprint is exactly what the admin accounts for
  // (manifest, rotated gk, surviving shard, fresh cipher bundle, retained
  // delta chain).
  EXPECT_EQ(cloud.list("groups/" + gid + "/").size(),
            admin.cloud_object_count(gid));
}

TEST_F(SystemFixture, RepartitioningMergesSparsePartitions) {
  // Build 3 partitions of 3, then remove users until most are sparse.
  auto users = make_users(9);
  admin.create_group(gid, users);
  ASSERT_EQ(admin.partition_count(gid), 3u);
  auto before_repartitions = admin.stats().repartitions;

  // Removing one user from each partition leaves all at 2/3 occupancy =>
  // every partition below ceil(2/3*3)=2? occupancy 2 == threshold... remove
  // two users from two partitions to force clearly sparse layouts.
  admin.remove_user(gid, users[0]);
  admin.remove_user(gid, users[1]);
  admin.remove_user(gid, users[3]);
  admin.remove_user(gid, users[4]);

  EXPECT_GT(admin.stats().repartitions, before_repartitions);
  // After the rebuild the survivors still share one key.
  auto a = client(users[2]).fetch_group_key(gid);
  auto b = client(users[8]).fetch_group_key(gid);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
  // And the rebuilt layout is compact: 5 members in 2 partitions.
  EXPECT_EQ(admin.group_size(gid), 5u);
  EXPECT_EQ(admin.partition_count(gid), 2u);
}

TEST_F(SystemFixture, ClientRejectsForgedMetadata) {
  admin.create_group(gid, make_users(3));
  // A curious cloud tampers with the stored index.
  auto path = "groups/" + gid + "/index";
  auto raw = cloud.get(path);
  ASSERT_TRUE(raw.has_value());
  (*raw)[raw->size() / 2] ^= 1;
  cloud.put(path, *raw);
  auto c = client("user0");
  EXPECT_FALSE(c.fetch_group_key(gid).has_value());
  EXPECT_GT(c.stats().signature_failures, 0u);
}

TEST_F(SystemFixture, LongPollObservesMembershipChange) {
  auto users = make_users(3);
  admin.create_group(gid, users);
  auto c = client(users[0]);
  auto initial = c.fetch_group_key(gid);
  ASSERT_TRUE(initial.has_value());

  // No change: times out.
  EXPECT_FALSE(c.wait_for_update(gid, 30ms).has_value());

  // A revocation elsewhere rotates the key; the poller picks it up.
  admin.remove_user(gid, users[2]);
  auto updated = c.wait_for_update(gid, 1s);
  ASSERT_TRUE(updated.has_value());
  EXPECT_NE(*updated, *initial);
}

TEST_F(SystemFixture, MetadataSizeTracksCloudContent) {
  admin.create_group(gid, make_users(6));
  // Reported metadata should be close to what is actually stored for the
  // group (paths and envelope framing differ slightly).
  auto reported = admin.metadata_size(gid);
  auto stored = cloud.stored_bytes();
  EXPECT_GT(reported, 0u);
  EXPECT_NEAR(static_cast<double>(reported), static_cast<double>(stored),
              static_cast<double>(stored) * 0.2);
}

TEST_F(SystemFixture, UnknownGroupThrows) {
  EXPECT_THROW(admin.add_user("nope", "x"), std::out_of_range);
  EXPECT_THROW((void)admin.group_size("nope"), std::out_of_range);
}

TEST_F(SystemFixture, PartitionSizeMustFitEnclaveBound) {
  EXPECT_THROW(AdminApi(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
                        AdminConfig{.partition_size = 9}),
               std::invalid_argument);
}

// ------------------------------------------------------------ scheme adapter

// The bundle encode normalizes every entry's points with one batch
// inversion per group; its bytes must be exactly the per-entry encoding's,
// for points whose Jacobian Z is not 1, and must read back entry by entry.
TEST(CipherBundleEncode, BatchNormalizedBytesEqualPerEntryEncoding) {
  using ibbe::system::CipherBundle;
  ibbe::crypto::Drbg rng(77);
  const auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  const ibbe::system::MetadataReader reader({key.public_key()});
  const ibbe::ec::G1 g1 = ibbe::testutil::random_g1();
  const ibbe::ec::G2 g2 = ibbe::testutil::random_g2();
  for (std::size_t n : {1u, 2u, 1000u}) {
    CipherBundle bundle;
    bundle.gk_epoch = 40 + n;
    ibbe::ec::G1 c1 = g1;
    ibbe::ec::G2 c2 = g2;
    for (std::size_t i = 0; i < n; ++i) {
      // Chained additions: every point comes out with a non-trivial Z.
      c1 += g1.dbl();
      c2 += g2.dbl();
      ibbe::enclave::PartitionCiphertext pc;
      pc.ct = {c1, c2, c2 + c2};
      pc.wrapped_gk = rng.bytes(48);
      pc.nonce = rng.bytes(12);
      ASSERT_FALSE(c1.jac_z().is_one());
      ASSERT_FALSE(c2.jac_z().is_one());
      bundle.entries.emplace_back(1000 + 3 * i, std::move(pc));
    }
    ibbe::util::ByteWriter per_entry;
    per_entry.u64(bundle.gk_epoch);
    per_entry.u32(static_cast<std::uint32_t>(n));
    for (const auto& [pid, cipher] : bundle.entries) {
      per_entry.u64(pid);
      per_entry.blob(cipher.to_bytes());
    }
    const Bytes encoded = bundle.to_bytes();
    ASSERT_EQ(encoded, per_entry.bytes()) << n;

    const auto back = CipherBundle::from_bytes(encoded);
    ASSERT_EQ(back.entries.size(), n);
    EXPECT_EQ(back.gk_epoch, bundle.gk_epoch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back.entries[i].first, bundle.entries[i].first);
      EXPECT_EQ(back.entries[i].second.to_bytes(),
                bundle.entries[i].second.to_bytes());
    }

    ibbe::system::GroupManifest m;
    m.gk_epoch = bundle.gk_epoch;
    const auto stored =
        std::optional<Bytes>(ibbe::system::sign_record(key, bundle));
    for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
      const auto& [pid, cipher] = bundle.entries[i];
      const auto entry = reader.bundle_entry(stored, m, pid);
      ASSERT_TRUE(entry.ok()) << n << "/" << i;
      EXPECT_EQ(entry.record.to_bytes(), cipher.to_bytes());
    }
  }
}

TEST(IbbeSgxScheme, BehavesLikeAGroupScheme) {
  ibbe::system::IbbeSgxScheme scheme(/*partition_size=*/4, /*seed=*/3);
  auto users = make_users(6);
  scheme.create_group(users);
  EXPECT_EQ(scheme.group_size(), 6u);

  auto gk = scheme.user_decrypt(users[0]);
  ASSERT_TRUE(gk.has_value());

  scheme.add_user("extra");
  EXPECT_EQ(scheme.user_decrypt("extra"), gk);

  scheme.remove_user(users[0]);
  EXPECT_FALSE(scheme.user_decrypt(users[0]).has_value());
  auto rotated = scheme.user_decrypt(users[1]);
  ASSERT_TRUE(rotated.has_value());
  EXPECT_NE(*rotated, *gk);
  EXPECT_GT(scheme.metadata_size(), 0u);
}

TEST(IbbeSgxScheme, AddBeforeCreateBootstrapsGroup) {
  ibbe::system::IbbeSgxScheme scheme(4, 3);
  scheme.add_user("first");
  EXPECT_EQ(scheme.group_size(), 1u);
  EXPECT_TRUE(scheme.user_decrypt("first").has_value());
}

TEST(IbbeSgxScheme, ConstantMetadataPerPartition) {
  // The headline storage property: metadata is per-partition constant, so a
  // full partition of n users stores barely more than one of 1 user.
  ibbe::system::IbbeSgxScheme small(8, 1);
  std::vector<Identity> one = {"a"};
  small.create_group(one);
  ibbe::system::IbbeSgxScheme big(8, 1);
  big.create_group(make_users(8));
  // 8x the members, same single partition: only the member lists grow (each
  // identity appears once in the partition record and once in the index,
  // with 4-byte framing); the cryptographic payload stays constant.
  std::size_t per_member = 2 * (4 + 5);  // "userN" in record + index
  EXPECT_LT(big.metadata_size(), small.metadata_size() + 8 * per_member + 16);
}

// ------------------------------------------------------------- golden pin

/// A plain store that hashes every call's verb and path (the store-call
/// order) and every write's path and bytes (the stored objects). Sealed gk
/// bytes are left out — their seal nonces come from platform entropy — and
/// only their paths are hashed.
class RecordingStore : public ibbe::cloud::CloudStore {
 public:
  std::uint64_t put(const std::string& path, Bytes value) override {
    record_write("put", path, value);
    return CloudStore::put(path, std::move(value));
  }
  std::optional<std::uint64_t> put_cas(const std::string& path, Bytes value,
                                       std::uint64_t expected) override {
    record_write("put_cas", path, value);
    return CloudStore::put_cas(path, std::move(value), expected);
  }
  std::optional<Bytes> get(const std::string& path) const override {
    record_call("get", path);
    return CloudStore::get(path);
  }
  std::optional<Versioned> get_versioned(
      const std::string& path) const override {
    record_call("get_versioned", path);
    return CloudStore::get_versioned(path);
  }
  bool erase(const std::string& path) override {
    record_call("erase", path);
    return CloudStore::erase(path);
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    record_call("list", prefix);
    return CloudStore::list(prefix);
  }

  std::string calls_hex() { return ibbe::util::to_hex(calls_.finish()); }
  std::string objects_hex() { return ibbe::util::to_hex(objects_.finish()); }

 private:
  void record_call(std::string_view verb, const std::string& path) const {
    calls_.update(verb);
    calls_.update(" " + path + "\n");
  }
  void record_write(std::string_view verb, const std::string& path,
                    const Bytes& value) {
    record_call(verb, path);
    objects_.update(path + "\n");
    if (!path.ends_with(".sealed")) {
      objects_.update(std::to_string(value.size()) + "\n");
      objects_.update(value);
    }
  }

  mutable ibbe::crypto::Sha256 calls_;
  ibbe::crypto::Sha256 objects_;
};

// Every object a seeded admin writes, and the order of its store calls,
// over create, both kinds of add, a single and a batch revocation, a
// shard-local re-partition, a full §V-A rebuild and a recovery. The pins
// hold at any IBBE_THREADS and under IBBE_FORCE_PORTABLE_MUL.
TEST(AdminGolden, StoredObjectsAndStoreCallsArePinned) {
  ibbe::sgx::EnclavePlatform platform("golden-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8, /*rng_seed=*/0x601D);
  RecordingStore cloud;
  ibbe::crypto::Drbg key_rng(23);
  AdminApi admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(key_rng),
                 AdminConfig{.partition_size = 4,
                             .shard_partitions = 2,
                             .log_operations = true},
                 /*seed=*/9);
  const GroupId gid = "golden";

  // [u0..u3] [u4..u7] | [u8..u11] [u12 u13]
  admin.create_group(gid, make_users(14));
  admin.add_user(gid, "x0");  // the one open partition
  admin.add_user(gid, "x1");  // fills it
  admin.add_user(gid, "x2");  // overflows into a new partition and shard
  ASSERT_EQ(admin.partition_count(gid), 5u);
  admin.remove_user(gid, "x2");  // empties and drops that partition
  ASSERT_EQ(admin.partition_count(gid), 4u);
  admin.remove_users(gid, std::vector<Identity>{"user0", "user8"});
  ASSERT_EQ(admin.stats().shard_repartitions, 0u);
  // Both partitions of the second shard fall below ceil(2m/3) = 3; globally
  // only 2 of 4 do.
  admin.remove_users(gid, std::vector<Identity>{"user9", "user12", "user13"});
  ASSERT_EQ(admin.stats().shard_repartitions, 1u);
  ASSERT_EQ(admin.stats().repartitions, 0u);
  // Now 2 of 3 partitions are sparse: the full rebuild.
  admin.remove_users(gid,
                     std::vector<Identity>{"user1", "user2", "user4", "user5"});
  ASSERT_EQ(admin.stats().repartitions, 1u);
  admin.add_user(gid, "x3");
  // A restart's recovery re-reads the committed snapshot and sweeps.
  ASSERT_TRUE(admin.recover(gid));
  admin.add_user(gid, "x4");
  EXPECT_EQ(admin.group_size(gid), 9u);

  EXPECT_EQ(cloud.objects_hex(),
            "f2d66d084ef667da59d7aa925d49861c51c8ad0e2821e6e867994ad70510213e");
  EXPECT_EQ(cloud.calls_hex(),
            "926ce83763a299bc7f31ce5ae34590f30b24dea24d0e3adb2d332586f8523126");
}

}  // namespace

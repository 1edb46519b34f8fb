#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "crypto/gcm.h"
#include "enclave/ibbe_enclave.h"
#include "pki/ecies.h"
#include "sgx/attestation.h"

namespace {

using ibbe::core::BroadcastCiphertext;
using ibbe::core::Identity;
using ibbe::core::UserSecretKey;
using ibbe::enclave::ExponentTable;
using ibbe::enclave::IbbeEnclave;
using ibbe::enclave::PartitionCiphertext;
using ibbe::util::Bytes;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

/// Client-side recovery of gk from a partition ciphertext (what ClientApi
/// does at the system layer).
std::optional<Bytes> unwrap_gk(const ibbe::core::PublicKey& pk,
                               const UserSecretKey& usk,
                               std::span<const Identity> members,
                               const PartitionCiphertext& pc) {
  auto bk = ibbe::core::decrypt(pk, usk, members, pc.ct);
  if (!bk) return std::nullopt;
  ibbe::crypto::Aes256Gcm gcm(bk->hash());
  return gcm.open(pc.nonce, pc.wrapped_gk);
}

/// Exponent-table entries, read off the EPC meter: the enclave's bill past
/// `at_load` (read right after construction), less its v/w tables and, once
/// a revocation has built it, its h comb.
std::size_t exponent_entries(const IbbeEnclave& enclave, std::size_t at_load,
                             bool comb_built) {
  const auto& pk = enclave.public_key();
  std::size_t tables = pk.fixed_base_tables().bytes();
  if (comb_built) tables += pk.h_comb().table_bytes();
  const std::size_t entries = enclave.epc_bytes_used() - at_load - tables;
  EXPECT_EQ(entries % ExponentTable::entry_bytes, 0u);
  return entries / ExponentTable::entry_bytes;
}

struct EnclaveFixture : ::testing::Test {
  EnclaveFixture() : platform("admin-server"), enclave(platform, 8) {}

  UserSecretKey usk(const Identity& id) {
    return enclave.ecall_extract_user_key(id);
  }
  std::size_t exponent_entries(bool comb_built) const {
    return ::exponent_entries(enclave, at_load, comb_built);
  }

  ibbe::sgx::EnclavePlatform platform;
  IbbeEnclave enclave;
  const std::size_t at_load = enclave.epc_bytes_used();
};

TEST_F(EnclaveFixture, CreateGroupAllMembersRecoverSameGk) {
  std::vector<std::vector<Identity>> partitions = {make_users(3, 0),
                                                   make_users(3, 3)};
  auto group = enclave.ecall_create_group(partitions);
  ASSERT_EQ(group.partitions.size(), 2u);

  std::optional<Bytes> gk_seen;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (const auto& id : partitions[p]) {
      auto gk = unwrap_gk(enclave.public_key(), usk(id), partitions[p],
                          group.partitions[p]);
      ASSERT_TRUE(gk.has_value()) << id;
      if (!gk_seen) gk_seen = *gk;
      EXPECT_EQ(*gk, *gk_seen) << id;  // one gk across partitions
    }
  }
  EXPECT_EQ(gk_seen->size(), ibbe::enclave::group_key_size);
}

TEST_F(EnclaveFixture, OutsiderCannotRecoverGk) {
  std::vector<std::vector<Identity>> partitions = {make_users(3)};
  auto group = enclave.ecall_create_group(partitions);
  auto outsider = usk("outsider");
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), outsider, partitions[0],
                         group.partitions[0])
                   .has_value());
}

TEST_F(EnclaveFixture, AddUserFastPathKeepsWrappedKeyValid) {
  auto members = make_users(3);
  auto group = enclave.ecall_create_group({{members}});
  auto& pc = group.partitions[0];

  Identity newcomer = "newcomer";
  auto updated_ct = enclave.ecall_add_user_to_partition(pc.ct, newcomer);
  auto extended = members;
  extended.push_back(newcomer);

  // The wrapped gk (y_p) was NOT re-issued — bk is unchanged by design, so
  // the newcomer must be able to open the existing y_p via the updated C2.
  PartitionCiphertext updated = pc;
  updated.ct = updated_ct;
  auto gk_new = unwrap_gk(enclave.public_key(), usk(newcomer), extended, updated);
  ASSERT_TRUE(gk_new.has_value());
  auto gk_old = unwrap_gk(enclave.public_key(), usk(members[0]), extended, updated);
  ASSERT_TRUE(gk_old.has_value());
  EXPECT_EQ(*gk_new, *gk_old);
}

TEST_F(EnclaveFixture, CreatePartitionWrapsExistingSealedGk) {
  auto members = make_users(2);
  auto group = enclave.ecall_create_group({{members}});

  auto late_users = make_users(2, 10);
  auto new_pc = enclave.ecall_create_partition(late_users, group.sealed_gk);

  auto gk_a = unwrap_gk(enclave.public_key(), usk(members[0]), members,
                        group.partitions[0]);
  auto gk_b = unwrap_gk(enclave.public_key(), usk(late_users[0]), late_users, new_pc);
  ASSERT_TRUE(gk_a.has_value());
  ASSERT_TRUE(gk_b.has_value());
  EXPECT_EQ(*gk_a, *gk_b);
}

TEST_F(EnclaveFixture, RemoveUserRotatesGkEverywhere) {
  std::vector<std::vector<Identity>> partitions = {make_users(3, 0),
                                                   make_users(3, 3)};
  auto group = enclave.ecall_create_group(partitions);
  auto gk_before = unwrap_gk(enclave.public_key(), usk("user0"), partitions[0],
                             group.partitions[0]);
  ASSERT_TRUE(gk_before.has_value());

  // Remove user1 (hosted in partition 0): a batch of one.
  Identity removed = "user1";
  std::vector<ibbe::enclave::IbbeEnclave::BatchRemovalSpec> hosts = {
      {group.partitions[0].ct, {removed}}};
  std::vector<ibbe::core::BroadcastCiphertext> others = {group.partitions[1].ct};
  auto result = enclave.ecall_remove_users(hosts, others);
  ASSERT_EQ(result.partitions.size(), 2u);

  std::vector<Identity> remaining_p0 = {"user0", "user2"};
  auto gk_p0 = unwrap_gk(enclave.public_key(), usk("user0"), remaining_p0,
                         result.partitions[0]);
  auto gk_p1 = unwrap_gk(enclave.public_key(), usk("user3"), partitions[1],
                         result.partitions[1]);
  ASSERT_TRUE(gk_p0.has_value());
  ASSERT_TRUE(gk_p1.has_value());
  EXPECT_EQ(*gk_p0, *gk_p1);
  EXPECT_NE(*gk_p0, *gk_before);  // revocation rotated the group key

  // The removed user can no longer derive the new key from any partition.
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), usk(removed), remaining_p0,
                         result.partitions[0])
                   .has_value());
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), usk(removed), partitions[1],
                         result.partitions[1])
                   .has_value());
}

TEST_F(EnclaveFixture, SealedGkIsBoundToTheEnclave) {
  auto group = enclave.ecall_create_group({{make_users(2)}});
  // A second enclave instance (fresh MSK, same build) cannot use this blob's
  // contents meaningfully, but more importantly a *different build* cannot
  // even unseal it.
  ibbe::sgx::EnclavePlatform other_platform("other-machine");
  IbbeEnclave other(other_platform, 8);
  EXPECT_THROW((void)other.ecall_create_partition(make_users(1), group.sealed_gk),
               std::invalid_argument);
}

TEST_F(EnclaveFixture, PartitionCiphertextSerializationRoundTrip) {
  auto members = make_users(2);
  auto group = enclave.ecall_create_group({{members}});
  auto bytes = group.partitions[0].to_bytes();
  auto back = PartitionCiphertext::from_bytes(bytes);
  auto gk = unwrap_gk(enclave.public_key(), usk(members[0]), members, back);
  EXPECT_TRUE(gk.has_value());
}

TEST_F(EnclaveFixture, EcallsAreCounted) {
  auto before = enclave.ecall_count();
  (void)enclave.ecall_create_group({{make_users(2)}});
  (void)enclave.ecall_extract_user_key("someone");
  EXPECT_EQ(enclave.ecall_count(), before + 2);
}

TEST_F(EnclaveFixture, EpcAccountsForPkTable) {
  const auto& pk = enclave.public_key();
  EXPECT_GT(at_load, 8 * ibbe::ec::g2_serialized_size);

  // Group creation adds the v/w tables and one exponent per partition; the
  // first revocation adds the h comb and moves its host's entry.
  auto group = enclave.ecall_create_group(
      std::vector<std::vector<Identity>>{make_users(3, 0), make_users(3, 3)});
  EXPECT_EQ(enclave.epc_bytes_used(), at_load + pk.fixed_base_tables().bytes() +
                                          2 * ExponentTable::entry_bytes);
  (void)enclave.ecall_remove_users(
      std::vector<IbbeEnclave::BatchRemovalSpec>{{group.partitions[0].ct, {"user1"}}},
      std::vector<BroadcastCiphertext>{group.partitions[1].ct});
  EXPECT_EQ(enclave.epc_bytes_used(),
            at_load + pk.fixed_base_tables().bytes() + pk.h_comb().table_bytes() +
                2 * ExponentTable::entry_bytes);
  EXPECT_LE(enclave.epc_bytes_peak(), ibbe::sgx::EnclaveBase::epc_limit);
}

// ------------------------------------------------------ partition exponents

std::vector<Bytes> partition_bytes(const std::vector<PartitionCiphertext>& pcs) {
  std::vector<Bytes> out;
  for (const auto& pc : pcs) out.push_back(pc.to_bytes());
  return out;
}

TEST(EnclaveExponents, WarmAndColdEnclavesReturnTheSameBytes) {
  // Two same-seed enclaves hold the same MSK. The warm one built the group
  // and re-keys from its recorded exponents; the cold one, brought to the
  // same DRBG position by a same-shape group over other ids, has never seen
  // these C3s and takes the MSK/PK path.
  ibbe::sgx::EnclavePlatform platform("warm-cold");
  IbbeEnclave warm(platform, 8, /*rng_seed=*/41);
  IbbeEnclave cold(platform, 8, /*rng_seed=*/41);
  const std::size_t warm_at_load = warm.epc_bytes_used();
  const std::vector<std::vector<Identity>> partitions = {
      make_users(4, 0), make_users(4, 4), make_users(3, 8)};
  auto group = warm.ecall_create_group(partitions);
  (void)cold.ecall_create_group(std::vector<std::vector<Identity>>{
      make_users(4, 100), make_users(4, 104), make_users(3, 108)});
  ASSERT_EQ(warm.public_key().to_bytes(), cold.public_key().to_bytes());

  using Hosts = std::vector<IbbeEnclave::BatchRemovalSpec>;
  using Others = std::vector<BroadcastCiphertext>;
  const Hosts hosts = {{group.partitions[0].ct, {"user1"}}};
  const Others others = {group.partitions[1].ct, group.partitions[2].ct};
  auto warm_removal = warm.ecall_remove_users(hosts, others);
  auto cold_removal = cold.ecall_remove_users(hosts, others);
  EXPECT_EQ(partition_bytes(warm_removal.partitions),
            partition_bytes(cold_removal.partitions));
  // Only the warm enclave re-keyed from exponents, so only it built the comb.
  EXPECT_EQ(warm.epc_bytes_used() - cold.epc_bytes_used(),
            warm.public_key().h_comb().table_bytes());

  // A join on the re-keyed host: the warm enclave knows its new C3.
  const BroadcastCiphertext& host_ct = warm_removal.partitions[0].ct;
  auto warm_join = warm.ecall_add_user_to_partition(host_ct, "newcomer");
  auto cold_join = cold.ecall_add_user_to_partition(host_ct, "newcomer");
  EXPECT_EQ(warm_join.to_bytes(), cold_join.to_bytes());

  // A second revocation on the joined partition reads the exponent the join
  // recorded.
  const Hosts hosts2 = {{warm_join, {"user0"}}};
  const Others others2 = {warm_removal.partitions[1].ct,
                          warm_removal.partitions[2].ct};
  auto warm_second = warm.ecall_remove_users(hosts2, others2);
  auto cold_second = cold.ecall_remove_users(hosts2, others2);
  EXPECT_EQ(partition_bytes(warm_second.partitions),
            partition_bytes(cold_second.partitions));
  // Superseded C3s went.
  EXPECT_EQ(exponent_entries(warm, warm_at_load, /*comb_built=*/true), 3u);

  const std::vector<Identity> left = {"user2", "user3", "newcomer"};
  PartitionCiphertext pc = warm_second.partitions[0];
  for (const auto& id : left) {
    EXPECT_TRUE(unwrap_gk(warm.public_key(), warm.ecall_extract_user_key(id),
                          left, pc)
                    .has_value())
        << id;
  }
}

TEST_F(EnclaveFixture, HostBuiltC3IsRekeyedOnTheMissPath) {
  // A known partition and one whose C3 the host computed from the PK alone
  // (C1 and C2 are never read by a re-key) share one batch.
  auto known = make_users(2, 50);
  auto group = enclave.ecall_create_group({{known}});
  auto members = make_users(3, 0);
  BroadcastCiphertext host_built;
  host_built.c3 = ibbe::core::compute_c3_public(enclave.public_key(), members);

  auto result = enclave.ecall_remove_users(
      {}, std::vector<BroadcastCiphertext>{host_built, group.partitions[0].ct});
  auto gk_known = unwrap_gk(enclave.public_key(), usk(known[0]), known,
                            result.partitions[1]);
  ASSERT_TRUE(gk_known.has_value());
  for (const auto& id : members) {
    auto gk = unwrap_gk(enclave.public_key(), usk(id), members,
                        result.partitions[0]);
    ASSERT_TRUE(gk.has_value()) << id;
    EXPECT_EQ(*gk, *gk_known) << id;
  }

  // As a removal host, too: the MSK path divides C3 itself.
  auto removal = enclave.ecall_remove_users(
      std::vector<IbbeEnclave::BatchRemovalSpec>{{host_built, {members[1]}}},
      std::vector<BroadcastCiphertext>{result.partitions[1].ct});
  const std::vector<Identity> left = {members[0], members[2]};
  auto gk_left = unwrap_gk(enclave.public_key(), usk(left[0]), left,
                           removal.partitions[0]);
  auto gk_other = unwrap_gk(enclave.public_key(), usk(known[1]), known,
                            removal.partitions[1]);
  ASSERT_TRUE(gk_left.has_value());
  ASSERT_TRUE(gk_other.has_value());
  EXPECT_EQ(*gk_left, *gk_other);
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), usk(members[1]), left,
                         removal.partitions[0])
                   .has_value());
  // Misses record nothing; only the enclave's own partition is known.
  EXPECT_EQ(exponent_entries(/*comb_built=*/true), 1u);
}

ExponentTable::Key test_key(std::size_t i) {
  ExponentTable::Key key{};
  for (std::size_t b = 0; b < sizeof(i); ++b) {
    key[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return key;
}

TEST(ExponentTable, TwoGenerationsBoundTheSizeAndKeepLiveEntries) {
  ExponentTable table;
  const auto s = [](std::size_t i) { return ibbe::field::Fr::from_u64(i + 1); };
  // Keys 0-2 stand for a group's live partitions, read on every revocation;
  // every round also records 100 C3s nothing reads again (rebuilds), so 100
  // rounds fill the table's two generations about twice over. Live entries
  // survive while the live set plus the inserts between two reads fit in a
  // generation.
  constexpr std::size_t stale_per_round = 100;
  for (std::size_t i = 0; i < 3; ++i) table.insert(test_key(i), s(i));
  for (std::size_t round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      auto got = table.lookup(test_key(i));
      ASSERT_TRUE(got.has_value()) << "round " << round << ", key " << i;
      EXPECT_EQ(*got, s(i));
    }
    for (std::size_t j = 0; j < stale_per_round; ++j) {
      table.insert(test_key(1000 + stale_per_round * round + j), s(0));
    }
    ASSERT_LE(table.size(), 2 * ExponentTable::generation);
  }
  EXPECT_GT(table.size(), ExponentTable::generation);
  EXPECT_FALSE(table.lookup(test_key(1000)).has_value());  // aged out
  table.erase(test_key(1));
  EXPECT_FALSE(table.lookup(test_key(1)).has_value());
  EXPECT_EQ(table.bytes(), table.size() * ExponentTable::entry_bytes);
}

TEST_F(EnclaveFixture, ExponentTableStaysBoundedAcrossRebuildsAndRevocations) {
  // Revocations and joins replace entries; only rebuilds add them, and those
  // age out two generations on.
  std::size_t expected = 0;
  for (std::size_t round = 0; round < 6; ++round) {
    auto group = enclave.ecall_create_group(std::vector<std::vector<Identity>>{
        make_users(2, 10 * round), make_users(2, 10 * round + 2)});
    expected += 2;
    // The first revocation builds the h comb.
    EXPECT_EQ(exponent_entries(/*comb_built=*/round > 0), expected);
    auto ct0 = group.partitions[0].ct;
    auto ct1 = group.partitions[1].ct;
    for (int rev = 0; rev < 3; ++rev) {
      const Identity joiner = "joiner" + std::to_string(rev);
      ct0 = enclave.ecall_add_user_to_partition(ct0, joiner);
      EXPECT_EQ(exponent_entries(/*comb_built=*/round > 0 || rev > 0), expected);
      auto removal = enclave.ecall_remove_users(
          std::vector<IbbeEnclave::BatchRemovalSpec>{{ct0, {joiner}}},
          std::vector<BroadcastCiphertext>{ct1});
      ct0 = removal.partitions[0].ct;
      ct1 = removal.partitions[1].ct;
      EXPECT_EQ(exponent_entries(/*comb_built=*/true), expected);
    }
  }
}

TEST_F(EnclaveFixture, ConcurrentEcallsOnOneEnclave) {
  // Two admins drive one enclave from two threads; the pool is shared too.
  struct Outcome {
    std::vector<Identity> left;
    std::vector<PartitionCiphertext> partitions;
  };
  std::array<Outcome, 2> outcomes;
  auto admin = [&](std::size_t t) {
    auto a = make_users(3, 100 * t);
    auto b = make_users(3, 100 * t + 3);
    auto group =
        enclave.ecall_create_group(std::vector<std::vector<Identity>>{a, b});
    auto extra = enclave.ecall_create_partition(make_users(2, 100 * t + 6),
                                                group.sealed_gk);
    auto removal = enclave.ecall_remove_users(
        std::vector<IbbeEnclave::BatchRemovalSpec>{{group.partitions[0].ct, {a[0]}}},
        std::vector<BroadcastCiphertext>{group.partitions[1].ct, extra.ct});
    auto joined = enclave.ecall_add_user_to_partition(removal.partitions[1].ct,
                                                      "joiner" + std::to_string(t));
    auto second = enclave.ecall_remove_users(
        std::vector<IbbeEnclave::BatchRemovalSpec>{{joined, {b[0]}}},
        std::vector<BroadcastCiphertext>{removal.partitions[0].ct,
                                         removal.partitions[2].ct});
    std::vector<Identity> left = {b[1], b[2], "joiner" + std::to_string(t)};
    outcomes[t] = {left, second.partitions};
  };
  std::thread first(admin, 0);
  std::thread other(admin, 1);
  first.join();
  other.join();

  for (std::size_t t = 0; t < 2; ++t) {
    const auto& out = outcomes[t];
    for (const auto& id : out.left) {
      EXPECT_TRUE(unwrap_gk(enclave.public_key(), usk(id), out.left,
                            out.partitions[0])
                      .has_value())
          << "thread " << t << ", " << id;
    }
  }
  EXPECT_EQ(exponent_entries(/*comb_built=*/true), 6u);
}

// ------------------------------------------------- provisioning (Fig. 3)

TEST_F(EnclaveFixture, FullAttestationAndProvisioningFlow) {
  // (1)-(2): platform registered with IAS, auditor expects this build.
  ibbe::sgx::AttestationService ias;
  ias.register_platform(platform);
  ibbe::crypto::Drbg auditor_rng(7);
  ibbe::sgx::Auditor auditor("auditor", ias, IbbeEnclave::image().measure(),
                             auditor_rng);

  // (3): certificate for the enclave's identity key.
  auto cert = auditor.attest_and_certify(enclave.attestation_quote(),
                                         enclave.identity_public_key());
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(ibbe::pki::CertificateAuthority::verify(*cert,
                                                      auditor.ca_public_key()));

  // (4): the user checks the certificate, then requests their key over an
  // encrypted channel (ECIES to the user's key).
  ibbe::crypto::Drbg user_rng(8);
  auto user_kp = ibbe::pki::EciesKeyPair::generate(user_rng);
  auto encrypted_usk = enclave.ecall_provision_user_key(
      "alice", user_kp.public_key_bytes());

  auto usk_bytes = user_kp.decrypt(encrypted_usk);
  ASSERT_TRUE(usk_bytes.has_value());
  auto usk = UserSecretKey::from_bytes(*usk_bytes);
  EXPECT_EQ(usk.id, "alice");
  EXPECT_TRUE(ibbe::core::verify_user_key(enclave.public_key(), usk));
}

TEST_F(EnclaveFixture, AuditorRejectsWrongBuild) {
  ibbe::sgx::AttestationService ias;
  ias.register_platform(platform);
  ibbe::crypto::Drbg auditor_rng(7);
  ibbe::sgx::Measurement wrong{};
  wrong.fill(0xde);
  ibbe::sgx::Auditor auditor("auditor", ias, wrong, auditor_rng);
  EXPECT_FALSE(auditor
                   .attest_and_certify(enclave.attestation_quote(),
                                       enclave.identity_public_key())
                   .has_value());
}

}  // namespace

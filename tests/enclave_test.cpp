#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "crypto/gcm.h"
#include "enclave/ibbe_enclave.h"
#include "pki/ecies.h"
#include "sgx/attestation.h"

namespace {

using ibbe::core::Identity;
using ibbe::core::UserSecretKey;
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

struct EnclaveFixture : ::testing::Test {
  EnclaveFixture() : platform("admin-server"), enclave(platform, 8) {}

  UserSecretKey usk(const Identity& id) {
    return enclave.ecall_extract_user_key(id);
  }

  ibbe::sgx::EnclavePlatform platform;
  IbbeEnclave enclave;
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
  EXPECT_GT(enclave.epc_bytes_used(), 8 * ibbe::ec::g2_serialized_size);
  EXPECT_LE(enclave.epc_bytes_used(), ibbe::sgx::EnclaveBase::epc_limit);
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

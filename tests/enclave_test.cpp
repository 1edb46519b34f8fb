#include <gtest/gtest.h>

#include <algorithm>
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
using ibbe::enclave::IbbeEnclave;
using ibbe::enclave::PartitionCiphertext;
using ibbe::util::Bytes;
using Handle = IbbeEnclave::PartitionHandle;
using Hosts = std::vector<IbbeEnclave::BatchRemovalSpec>;
using Others = std::vector<Handle>;

std::vector<Identity> make_users(std::size_t n, std::size_t offset = 0) {
  std::vector<Identity> users;
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back("user" + std::to_string(offset + i));
  }
  return users;
}

/// Partition ids 1..n.
std::vector<std::uint64_t> pids_for(std::size_t n) {
  std::vector<std::uint64_t> pids(n);
  for (std::size_t i = 0; i < n; ++i) pids[i] = i + 1;
  return pids;
}

/// Creates `partitions` under pids 1..n.
IbbeEnclave::GroupCreation create(
    IbbeEnclave& enclave, const std::vector<std::vector<Identity>>& partitions) {
  return enclave.ecall_create_group(pids_for(partitions.size()), partitions);
}

/// Partition i of a creation, as the admin would hand it back (pid i + 1).
Handle handle_of(const IbbeEnclave::GroupCreation& group, std::size_t i) {
  return {i + 1, group.partitions[i].ct, group.records[i]};
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

std::vector<Bytes> partition_bytes(const std::vector<PartitionCiphertext>& pcs) {
  std::vector<Bytes> out;
  for (const auto& pc : pcs) out.push_back(pc.to_bytes());
  return out;
}

struct EnclaveFixture : ::testing::Test {
  EnclaveFixture() : platform("admin-server"), enclave(platform, 8) {}

  UserSecretKey usk(const Identity& id) {
    return enclave.ecall_extract_user_key(id);
  }

  ibbe::sgx::EnclavePlatform platform;
  IbbeEnclave enclave;
  const std::size_t at_load = enclave.epc_bytes_used();
};

TEST_F(EnclaveFixture, CreateGroupAllMembersRecoverSameGk) {
  std::vector<std::vector<Identity>> partitions = {make_users(3, 0),
                                                   make_users(3, 3)};
  auto group = create(enclave, partitions);
  ASSERT_EQ(group.partitions.size(), 2u);
  ASSERT_EQ(group.records.size(), 2u);

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
  auto group = create(enclave, partitions);
  auto outsider = usk("outsider");
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), outsider, partitions[0],
                         group.partitions[0])
                   .has_value());
}

TEST_F(EnclaveFixture, AddUserRekeysThePartitionAndRewrapsGk) {
  auto members = make_users(3);
  auto group = create(enclave, {members});
  const PartitionCiphertext& before = group.partitions[0];

  Identity newcomer = "newcomer";
  auto joined = enclave.ecall_add_user_to_partition(handle_of(group, 0),
                                                    newcomer, group.sealed_gk);
  auto extended = members;
  extended.push_back(newcomer);

  // A fresh k: new C1, C2 and y_p under a new bk, wrapping the same gk.
  EXPECT_NE(joined.cipher.ct.to_bytes(), before.ct.to_bytes());
  EXPECT_NE(joined.record, group.records[0]);
  auto gk_new = unwrap_gk(enclave.public_key(), usk(newcomer), extended,
                          joined.cipher);
  ASSERT_TRUE(gk_new.has_value());
  auto gk_old = unwrap_gk(enclave.public_key(), usk(members[0]), extended,
                          joined.cipher);
  ASSERT_TRUE(gk_old.has_value());
  EXPECT_EQ(*gk_new, *gk_old);
  EXPECT_EQ(*gk_new, *unwrap_gk(enclave.public_key(), usk(members[0]), members,
                                before));
  // The newcomer's key opens nothing wrapped before it joined.
  EXPECT_FALSE(unwrap_gk(enclave.public_key(), usk(newcomer), extended, before)
                   .has_value());
}

TEST_F(EnclaveFixture, CreatePartitionWrapsExistingSealedGk) {
  auto members = make_users(2);
  auto group = create(enclave, {members});

  auto late_users = make_users(2, 10);
  auto made = enclave.ecall_create_partition(7, late_users, group.sealed_gk);

  auto gk_a = unwrap_gk(enclave.public_key(), usk(members[0]), members,
                        group.partitions[0]);
  auto gk_b = unwrap_gk(enclave.public_key(), usk(late_users[0]), late_users,
                        made.cipher);
  ASSERT_TRUE(gk_a.has_value());
  ASSERT_TRUE(gk_b.has_value());
  EXPECT_EQ(*gk_a, *gk_b);
  EXPECT_FALSE(made.record.empty());
}

TEST_F(EnclaveFixture, RemoveUserRekeysTheHostAndRewrapsTheRest) {
  std::vector<std::vector<Identity>> partitions = {make_users(3, 0),
                                                   make_users(3, 3)};
  auto group = create(enclave, partitions);
  auto gk_before = unwrap_gk(enclave.public_key(), usk("user0"), partitions[0],
                             group.partitions[0]);
  ASSERT_TRUE(gk_before.has_value());

  // Remove user1 (hosted in partition 0): a batch of one.
  Identity removed = "user1";
  auto result = enclave.ecall_remove_users(Hosts{{handle_of(group, 0), {removed}}},
                                           Others{handle_of(group, 1)});
  ASSERT_EQ(result.partitions.size(), 2u);
  ASSERT_EQ(result.records.size(), 2u);
  // The host was re-keyed; the other partition keeps C1-C3 and its record.
  EXPECT_FALSE(result.records[0].empty());
  EXPECT_TRUE(result.records[1].empty());
  EXPECT_EQ(result.partitions[1].ct.to_bytes(), group.partitions[1].ct.to_bytes());
  EXPECT_NE(result.partitions[1].nonce, group.partitions[1].nonce);

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

TEST_F(EnclaveFixture, RevokedMembersKnownKeysOpenNoNewWrappedKey) {
  // Everything the revoked member could compute before its removal: its own
  // partition's bk (with its USK over the old set), and what its USK yields
  // against every new ciphertext, listed as a member or not.
  std::vector<std::vector<Identity>> partitions = {
      make_users(3, 0), make_users(3, 3), make_users(2, 6), make_users(3, 8)};
  auto group = create(enclave, partitions);
  const Identity revoked = "user4";
  const auto revoked_usk = usk(revoked);
  const auto old_bk = ibbe::core::decrypt(enclave.public_key(), revoked_usk,
                                          partitions[1], group.partitions[1].ct);
  ASSERT_TRUE(old_bk.has_value());

  auto result = enclave.ecall_remove_users(
      Hosts{{handle_of(group, 1), {revoked}}},
      Others{handle_of(group, 0), handle_of(group, 2), handle_of(group, 3)});
  const std::vector<std::size_t> order = {1, 0, 2, 3};  // output slot -> p
  for (std::size_t i = 0; i < result.partitions.size(); ++i) {
    const PartitionCiphertext& pc = result.partitions[i];
    auto listed = partitions[order[i]];
    if (std::find(listed.begin(), listed.end(), revoked) == listed.end()) {
      listed.push_back(revoked);
    }
    EXPECT_FALSE(ibbe::crypto::Aes256Gcm(old_bk->hash())
                     .open(pc.nonce, pc.wrapped_gk)
                     .has_value())
        << "slot " << i;
    EXPECT_FALSE(unwrap_gk(enclave.public_key(), revoked_usk, listed, pc)
                     .has_value())
        << "slot " << i;
  }
}

TEST_F(EnclaveFixture, RecordIsRefusedUnderAnotherPidGroupOrC1) {
  // Each refused record sends its partition to the full re-key, which
  // returns a fresh record; its members still open the new y.
  std::vector<std::vector<Identity>> partitions = {make_users(3, 0),
                                                   make_users(3, 3),
                                                   make_users(3, 6)};
  auto group = create(enclave, partitions);
  auto other_group = create(enclave, {make_users(2, 20)});
  // A join re-keyed partition 2: its old record no longer matches its C1.
  auto joined = enclave.ecall_add_user_to_partition(handle_of(group, 2),
                                                    "late", group.sealed_gk);
  auto grown = partitions[2];
  grown.push_back("late");

  const Others others = {
      // Partition 0's record moved to pid 9.
      {9, group.partitions[0].ct, group.records[0]},
      // Partition 1 handed the other group's record for the same pid.
      {2, group.partitions[1].ct, other_group.records[0]},
      // Partition 2's pre-join record paired with its re-keyed C1.
      {3, joined.cipher.ct, group.records[2]},
  };
  auto removal = enclave.ecall_remove_users(Hosts{}, others);
  const std::vector<std::vector<Identity>> sets = {partitions[0], partitions[1],
                                                   grown};
  std::optional<Bytes> gk_seen;
  for (std::size_t i = 0; i < others.size(); ++i) {
    EXPECT_FALSE(removal.records[i].empty()) << i;
    EXPECT_NE(removal.partitions[i].ct.to_bytes(), others[i].ct.to_bytes()) << i;
    for (const auto& id : sets[i]) {
      auto gk = unwrap_gk(enclave.public_key(), usk(id), sets[i],
                          removal.partitions[i]);
      ASSERT_TRUE(gk.has_value()) << i << " " << id;
      if (!gk_seen) gk_seen = *gk;
      EXPECT_EQ(*gk, *gk_seen) << i << " " << id;
    }
  }
  // The fresh records stand at the next revocation: nothing is re-keyed.
  const Others again = {{9, removal.partitions[0].ct, removal.records[0]},
                        {2, removal.partitions[1].ct, removal.records[1]},
                        {3, removal.partitions[2].ct, removal.records[2]}};
  auto next = enclave.ecall_remove_users(Hosts{}, again);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_TRUE(next.records[i].empty()) << i;
    EXPECT_EQ(next.partitions[i].ct.to_bytes(), again[i].ct.to_bytes()) << i;
  }
}

TEST(EnclaveRecords, SameSeedEnclaveGivenTheRecordsReturnsTheSameBytes) {
  // Two same-seed enclaves hold the same MSK. The first built the group;
  // the second, brought to the same DRBG position by a same-shape group over
  // other ids, is handed the first's records, as a restarted enclave or a
  // second platform would be.
  ibbe::sgx::EnclavePlatform platform("first-second");
  IbbeEnclave first(platform, 8, /*rng_seed=*/41);
  IbbeEnclave second(platform, 8, /*rng_seed=*/41);
  const std::vector<std::vector<Identity>> partitions = {
      make_users(4, 0), make_users(4, 4), make_users(3, 8)};
  auto group = create(first, partitions);
  (void)create(second, {make_users(4, 100), make_users(4, 104),
                        make_users(3, 108)});
  ASSERT_EQ(first.public_key().to_bytes(), second.public_key().to_bytes());

  const Hosts hosts = {{handle_of(group, 0), {"user1"}}};
  const Others others = {handle_of(group, 1), handle_of(group, 2)};
  auto a = first.ecall_remove_users(hosts, others);
  auto b = second.ecall_remove_users(hosts, others);
  EXPECT_EQ(partition_bytes(a.partitions), partition_bytes(b.partitions));
  EXPECT_EQ(a.records, b.records);
  EXPECT_TRUE(a.records[1].empty());  // re-wrapped, not re-keyed
  EXPECT_TRUE(a.records[2].empty());

  // A join on the re-keyed host, then a second revocation from it.
  const Handle host = {1, a.partitions[0].ct, a.records[0]};
  auto join_a = first.ecall_add_user_to_partition(host, "newcomer", a.sealed_gk);
  auto join_b = second.ecall_add_user_to_partition(host, "newcomer", a.sealed_gk);
  EXPECT_EQ(join_a.cipher.to_bytes(), join_b.cipher.to_bytes());
  EXPECT_EQ(join_a.record, join_b.record);

  const Handle joined = {1, join_a.cipher.ct, join_a.record};
  const Hosts hosts2 = {{joined, {"user0"}}};
  const Others others2 = {{2, a.partitions[1].ct, group.records[1]},
                          {3, a.partitions[2].ct, group.records[2]}};
  auto a2 = first.ecall_remove_users(hosts2, others2);
  auto b2 = second.ecall_remove_users(hosts2, others2);
  EXPECT_EQ(partition_bytes(a2.partitions), partition_bytes(b2.partitions));
  EXPECT_EQ(a2.records, b2.records);

  const std::vector<Identity> left = {"user2", "user3", "newcomer"};
  for (const auto& id : left) {
    EXPECT_TRUE(unwrap_gk(first.public_key(), first.ecall_extract_user_key(id),
                          left, a2.partitions[0])
                    .has_value())
        << id;
  }
}

TEST_F(EnclaveFixture, EcallsAreCounted) {
  auto before = enclave.ecall_count();
  (void)create(enclave, {make_users(2)});
  (void)enclave.ecall_extract_user_key("someone");
  EXPECT_EQ(enclave.ecall_count(), before + 2);
}

TEST_F(EnclaveFixture, SealedGkIsBoundToTheEnclave) {
  auto group = create(enclave, {make_users(2)});
  // A second enclave instance (fresh MSK, same build) cannot use this blob's
  // contents meaningfully, but more importantly a *different build* cannot
  // even unseal it.
  ibbe::sgx::EnclavePlatform other_platform("other-machine");
  IbbeEnclave other(other_platform, 8);
  EXPECT_THROW(
      (void)other.ecall_create_partition(1, make_users(1), group.sealed_gk),
      std::invalid_argument);
}

TEST_F(EnclaveFixture, PartitionCiphertextSerializationRoundTrip) {
  auto members = make_users(2);
  auto group = create(enclave, {members});
  auto bytes = group.partitions[0].to_bytes();
  auto back = PartitionCiphertext::from_bytes(bytes);
  auto gk = unwrap_gk(enclave.public_key(), usk(members[0]), members, back);
  EXPECT_TRUE(gk.has_value());
}

TEST_F(EnclaveFixture, EpcAccountsForPkTable) {
  const auto& pk = enclave.public_key();
  EXPECT_GT(at_load, 8 * ibbe::ec::g2_serialized_size);

  // Group creation adds the v/w tables; the first revocation whose host
  // has a record adds the h comb. Records live outside the enclave.
  auto group = create(enclave, {make_users(3, 0), make_users(3, 3)});
  EXPECT_EQ(enclave.epc_bytes_used(), at_load + pk.fixed_base_tables().bytes());
  (void)enclave.ecall_remove_users(Hosts{{handle_of(group, 0), {"user1"}}},
                                   Others{handle_of(group, 1)});
  EXPECT_EQ(enclave.epc_bytes_used(), at_load + pk.fixed_base_tables().bytes() +
                                          pk.h_comb().table_bytes());
  EXPECT_LE(enclave.epc_bytes_peak(), ibbe::sgx::EnclaveBase::epc_limit);
}

TEST_F(EnclaveFixture, HostBuiltC3WithoutRecordTakesTheFullRekey) {
  // A known partition and one whose C3 the host computed from the PK alone
  // (C1 and C2 are never read by a re-key) share one batch.
  auto known = make_users(2, 50);
  auto group = create(enclave, {known});
  auto members = make_users(3, 0);
  Handle host_built{7, {}, {}};
  host_built.ct.c3 =
      ibbe::core::compute_c3_public(enclave.public_key(), members);

  auto result = enclave.ecall_remove_users(
      Hosts{}, Others{host_built, handle_of(group, 0)});
  EXPECT_FALSE(result.records[0].empty());  // re-keyed: a fresh record
  EXPECT_TRUE(result.records[1].empty());   // re-wrapped
  auto gk_known = unwrap_gk(enclave.public_key(), usk(known[0]), known,
                            result.partitions[1]);
  ASSERT_TRUE(gk_known.has_value());
  for (const auto& id : members) {
    auto gk = unwrap_gk(enclave.public_key(), usk(id), members,
                        result.partitions[0]);
    ASSERT_TRUE(gk.has_value()) << id;
    EXPECT_EQ(*gk, *gk_known) << id;
  }

  // As a removal host, too: with no record the MSK path divides C3 itself.
  auto removal = enclave.ecall_remove_users(
      Hosts{{host_built, {members[1]}}},
      Others{{1, result.partitions[1].ct, group.records[0]}});
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

  // The record the full re-key returned knows no exponent: a join through
  // it grows the host-supplied C3 and still admits the joiner.
  const Handle rekeyed = {7, result.partitions[0].ct, result.records[0]};
  auto joined = enclave.ecall_add_user_to_partition(rekeyed, "joiner",
                                                    result.sealed_gk);
  auto grown = members;
  grown.push_back("joiner");
  EXPECT_EQ(unwrap_gk(enclave.public_key(), usk("joiner"), grown, joined.cipher),
            gk_known);
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
    auto group = create(enclave, {a, b});
    auto extra = enclave.ecall_create_partition(3, make_users(2, 100 * t + 6),
                                                group.sealed_gk);
    auto removal = enclave.ecall_remove_users(
        Hosts{{handle_of(group, 0), {a[0]}}},
        Others{handle_of(group, 1), {3, extra.cipher.ct, extra.record}});
    auto joined = enclave.ecall_add_user_to_partition(
        {2, removal.partitions[1].ct, group.records[1]},
        "joiner" + std::to_string(t), removal.sealed_gk);
    const Handle grown = {2, joined.cipher.ct, joined.record};
    auto second = enclave.ecall_remove_users(
        Hosts{{grown, {b[0]}}},
        Others{{1, removal.partitions[0].ct, removal.records[0]},
               {3, removal.partitions[2].ct, extra.record}});
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

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "he/he_ibe.h"
#include "ibbe/ibbe.h"
#include "ibbe/poly.h"
#include "util/hex.h"

namespace {

using ibbe::core::BroadcastCiphertext;
using ibbe::core::Identity;
using ibbe::core::PublicKey;
using ibbe::core::SystemKeys;
using ibbe::core::UserSecretKey;
using ibbe::crypto::Drbg;

std::vector<Identity> make_users(std::size_t n, const std::string& prefix = "user") {
  std::vector<Identity> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    users.push_back(prefix + std::to_string(i) + "@example.com");
  }
  return users;
}

struct IbbeFixture : ::testing::Test {
  IbbeFixture() : rng(99), keys(ibbe::core::setup(32, rng)) {}

  UserSecretKey usk(const Identity& id) {
    return ibbe::core::extract_user_key(keys.msk, id);
  }

  Drbg rng;
  SystemKeys keys;
};

// ------------------------------------------------------------------- setup

TEST_F(IbbeFixture, SetupShapes) {
  EXPECT_EQ(keys.pk.max_receivers(), 32u);
  EXPECT_EQ(keys.pk.h_powers.size(), 33u);
  EXPECT_FALSE(keys.msk.gamma.is_zero());
  // w = g^gamma.
  EXPECT_EQ(keys.pk.w, keys.msk.g.mul(keys.msk.gamma));
  // h_powers[i+1] = h_powers[i]^gamma.
  EXPECT_EQ(keys.pk.h_powers[1], keys.pk.h().mul(keys.msk.gamma));
  EXPECT_EQ(keys.pk.h_powers[5], keys.pk.h_powers[4].mul(keys.msk.gamma));
}

TEST(IbbeSetup, RejectsZeroSize) {
  Drbg rng(1);
  EXPECT_THROW(ibbe::core::setup(0, rng), std::invalid_argument);
}

TEST_F(IbbeFixture, HashIdentityIsStableAndNonZero) {
  auto a = ibbe::core::hash_identity("alice");
  EXPECT_EQ(a, ibbe::core::hash_identity("alice"));
  EXPECT_FALSE(a.is_zero());
  EXPECT_NE(a, ibbe::core::hash_identity("bob"));
}

TEST_F(IbbeFixture, ExtractedKeysVerify) {
  auto key = usk("alice");
  EXPECT_TRUE(ibbe::core::verify_user_key(keys.pk, key));
  // A key presented under a different identity fails the pairing check.
  UserSecretKey forged = key;
  forged.id = "bob";
  EXPECT_FALSE(ibbe::core::verify_user_key(keys.pk, forged));
}

// --------------------------------------------------------- encrypt/decrypt

class IbbeRoundTrip : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(SetSizes, IbbeRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 8u, 17u));

TEST_P(IbbeRoundTrip, EveryMemberRecoversBk) {
  Drbg rng(5);
  auto keys = ibbe::core::setup(20, rng);
  auto users = make_users(GetParam());
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  for (const auto& id : users) {
    auto usk = ibbe::core::extract_user_key(keys.msk, id);
    auto bk = ibbe::core::decrypt(keys.pk, usk, users, enc.ct);
    ASSERT_TRUE(bk.has_value()) << id;
    EXPECT_EQ(*bk, enc.bk) << id;
  }
}

TEST_P(IbbeRoundTrip, PublicEncryptMatchesMskEncryptStructure) {
  Drbg rng(6);
  auto keys = ibbe::core::setup(20, rng);
  auto users = make_users(GetParam());
  // C3 is randomizer-free, so the two paths must agree on it exactly.
  auto enc_msk = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto enc_pub = ibbe::core::encrypt_public(keys.pk, users, rng);
  EXPECT_EQ(enc_msk.ct.c3, enc_pub.ct.c3);
  EXPECT_EQ(enc_msk.ct.c3, ibbe::core::compute_c3_public(keys.pk, users));
  // And a member can decrypt the public-path ciphertext.
  auto usk = ibbe::core::extract_user_key(keys.msk, users.front());
  auto bk = ibbe::core::decrypt(keys.pk, usk, users, enc_pub.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, enc_pub.bk);
}

TEST_F(IbbeFixture, NonMemberGetsNullopt) {
  auto users = make_users(4);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto outsider = usk("outsider@example.com");
  EXPECT_FALSE(ibbe::core::decrypt(keys.pk, outsider, users, enc.ct).has_value());
}

TEST_F(IbbeFixture, WrongKeyYieldsWrongBk) {
  // A member identity with someone else's USK decrypts to garbage, not bk.
  auto users = make_users(3);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  UserSecretKey mismatched = usk(users[1]);
  mismatched.id = users[0];  // claims to be user0 but holds user1's key
  auto bk = ibbe::core::decrypt(keys.pk, mismatched, users, enc.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_NE(*bk, enc.bk);
}

TEST_F(IbbeFixture, EncryptRejectsEmptyAndOversizedSets) {
  std::vector<Identity> empty;
  EXPECT_THROW(ibbe::core::encrypt_with_msk(keys.msk, keys.pk, empty, rng),
               std::invalid_argument);
  auto too_many = make_users(33);
  EXPECT_THROW(ibbe::core::encrypt_with_msk(keys.msk, keys.pk, too_many, rng),
               std::invalid_argument);
  EXPECT_THROW(ibbe::core::encrypt_public(keys.pk, too_many, rng),
               std::invalid_argument);
}

TEST_F(IbbeFixture, DecryptRejectsOversizedSet) {
  auto users = make_users(4);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto too_many = make_users(33);
  auto key = usk(too_many[0]);
  EXPECT_FALSE(ibbe::core::decrypt(keys.pk, key, too_many, enc.ct).has_value());
}

TEST_F(IbbeFixture, FreshRandomizerPerEncrypt) {
  auto users = make_users(2);
  auto e1 = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto e2 = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  EXPECT_NE(e1.bk, e2.bk);
  EXPECT_FALSE(e1.ct.c1 == e2.ct.c1);
  EXPECT_EQ(e1.ct.c3, e2.ct.c3);  // C3 has no randomizer
}

// -------------------------------------------------------- membership ops

TEST_F(IbbeFixture, AddUserKeepsBkAndExtendsSet) {
  auto users = make_users(3);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);

  Identity newcomer = "newcomer@example.com";
  ibbe::core::add_user_with_msk(keys.msk, enc.ct, newcomer);
  auto extended = users;
  extended.push_back(newcomer);

  // C3 invariant: matches a from-scratch public computation on the new set.
  EXPECT_EQ(enc.ct.c3, ibbe::core::compute_c3_public(keys.pk, extended));

  // The newcomer and the old members all recover the *unchanged* bk.
  for (const auto& id : extended) {
    auto bk = ibbe::core::decrypt(keys.pk, usk(id), extended, enc.ct);
    ASSERT_TRUE(bk.has_value()) << id;
    EXPECT_EQ(*bk, enc.bk) << id;
  }
}

TEST_F(IbbeFixture, RemoveUserRekeysAndShrinksSet) {
  auto users = make_users(4);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);

  Identity leaver = users[2];
  auto removed = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct,
                                                  std::span(&leaver, 1), rng);
  std::vector<Identity> remaining = {users[0], users[1], users[3]};

  EXPECT_NE(removed.bk, enc.bk);
  EXPECT_EQ(removed.ct.c3, ibbe::core::compute_c3_public(keys.pk, remaining));

  for (const auto& id : remaining) {
    auto bk = ibbe::core::decrypt(keys.pk, usk(id), remaining, removed.ct);
    ASSERT_TRUE(bk.has_value()) << id;
    EXPECT_EQ(*bk, removed.bk) << id;
  }
  // The leaver is no longer in the receiver set.
  EXPECT_FALSE(
      ibbe::core::decrypt(keys.pk, usk(leaver), remaining, removed.ct).has_value());
  // Even pretending to still be in the set, the old key yields a wrong bk.
  auto cheat = ibbe::core::decrypt(keys.pk, usk(leaver), users, removed.ct);
  if (cheat.has_value()) {
    EXPECT_NE(*cheat, removed.bk);
  }
}

TEST_F(IbbeFixture, RekeyChangesBkNotMembership) {
  auto users = make_users(3);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto rekeyed = ibbe::core::rekey(keys.pk, enc.ct, rng);

  EXPECT_NE(rekeyed.bk, enc.bk);
  EXPECT_EQ(rekeyed.ct.c3, enc.ct.c3);
  for (const auto& id : users) {
    auto bk = ibbe::core::decrypt(keys.pk, usk(id), users, rekeyed.ct);
    ASSERT_TRUE(bk.has_value());
    EXPECT_EQ(*bk, rekeyed.bk);
  }
}

TEST_F(IbbeFixture, AddThenRemoveIsConsistent) {
  auto users = make_users(2);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  Identity temp = "temp@example.com";
  ibbe::core::add_user_with_msk(keys.msk, enc.ct, temp);
  auto removed = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct,
                                                  std::span(&temp, 1), rng);
  // Back to the original receiver set.
  EXPECT_EQ(removed.ct.c3, ibbe::core::compute_c3_public(keys.pk, users));
  auto bk = ibbe::core::decrypt(keys.pk, usk(users[0]), users, removed.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, removed.bk);
}

// ----------------------------------------------------------- serialization

TEST_F(IbbeFixture, PublicKeyRoundTrip) {
  auto bytes = keys.pk.to_bytes();
  auto back = PublicKey::from_bytes(bytes);
  EXPECT_EQ(back.w, keys.pk.w);
  EXPECT_EQ(back.v, keys.pk.v);
  ASSERT_EQ(back.h_powers.size(), keys.pk.h_powers.size());
  for (std::size_t i = 0; i < back.h_powers.size(); ++i) {
    EXPECT_EQ(back.h_powers[i], keys.pk.h_powers[i]) << i;
  }
}

TEST_F(IbbeFixture, UserKeyRoundTrip) {
  auto key = usk("alice");
  auto back = UserSecretKey::from_bytes(key.to_bytes());
  EXPECT_EQ(back.id, key.id);
  EXPECT_EQ(back.value, key.value);
  EXPECT_TRUE(ibbe::core::verify_user_key(keys.pk, back));
}

TEST_F(IbbeFixture, CiphertextRoundTrip) {
  auto users = make_users(3);
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto bytes = enc.ct.to_bytes();
  EXPECT_EQ(bytes.size(), BroadcastCiphertext::serialized_size);
  auto back = BroadcastCiphertext::from_bytes(bytes);
  EXPECT_EQ(back.c1, enc.ct.c1);
  EXPECT_EQ(back.c2, enc.ct.c2);
  EXPECT_EQ(back.c3, enc.ct.c3);
  // Deserialized ciphertext still decrypts.
  auto bk = ibbe::core::decrypt(keys.pk, usk(users[1]), users, back);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, enc.bk);
}

TEST_F(IbbeFixture, CiphertextIsConstantSize) {
  // The headline IBBE property: ciphertext size independent of |S|.
  auto small = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, make_users(1), rng);
  auto large = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, make_users(30), rng);
  EXPECT_EQ(small.ct.to_bytes().size(), large.ct.to_bytes().size());
}

// ------------------------------------------------- cached partition decrypt

TEST_F(IbbeFixture, PreparedPartitionDecryptEqualsDecrypt) {
  auto users = make_users(8);
  auto key = usk(users[2]);
  auto part = ibbe::core::PreparedPartition::prepare(keys.pk, key, users);
  ASSERT_TRUE(part.has_value());

  // The cache stays valid across re-keys (C3 unchanged) and fresh messages.
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  EXPECT_EQ(ibbe::core::decrypt(*part, enc.ct),
            *ibbe::core::decrypt(keys.pk, key, users, enc.ct));
  auto rekeyed = ibbe::core::rekey(keys.pk, enc.ct, rng);
  EXPECT_EQ(ibbe::core::decrypt(*part, rekeyed.ct), rekeyed.bk);
}

/// bk by the unfolded formula (e(C1, h^p_i) * e(USK, C2))^(1/Delta): h^p_i
/// summed term by term from the PK powers, 1/Delta a GT exponentiation.
ibbe::pairing::Gt unfolded_decrypt(const PublicKey& pk, const UserSecretKey& key,
                                   const std::vector<Identity>& set,
                                   const BroadcastCiphertext& ct) {
  std::vector<ibbe::field::Fr> roots;
  bool skipped = false;
  for (const auto& id : set) {
    if (!skipped && id == key.id) {
      skipped = true;
      continue;
    }
    roots.push_back(ibbe::core::hash_identity(id));
  }
  auto coef = ibbe::core::poly::expand_roots_incremental(roots);
  ibbe::ec::G2 h_pi = ibbe::ec::G2::infinity();
  for (std::size_t i = 1; i < coef.size(); ++i) {
    h_pi += pk.h_powers[i - 1].mul(coef[i]);
  }
  std::vector<std::pair<ibbe::ec::G1, ibbe::ec::G2>> pairs = {
      {ct.c1, h_pi}, {key.value, ct.c2}};
  return ibbe::pairing::pairing_product(pairs).exp(coef[0].inverse());
}

TEST_F(IbbeFixture, FoldedPreparedDecryptEqualsTheGtTail) {
  // |S| = 1 has Delta = 1 and h^p_i = infinity; the member sits first,
  // in the middle and last.
  for (std::size_t n : {1u, 2u, 17u}) {
    auto users = make_users(n, "fold" + std::to_string(n) + "-");
    auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
    for (std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      auto key = usk(users[at]);
      auto part = ibbe::core::PreparedPartition::prepare(keys.pk, key, users);
      ASSERT_TRUE(part.has_value());
      const auto want = unfolded_decrypt(keys.pk, key, users, enc.ct);
      EXPECT_EQ(ibbe::core::decrypt(*part, enc.ct), want)
          << "|S| = " << n << ", member " << at;
      EXPECT_EQ(want, enc.bk) << "|S| = " << n << ", member " << at;
    }
  }
}

TEST_F(IbbeFixture, PreparedPartitionRejectsNonMembersAndOversizedSets) {
  auto users = make_users(4);
  auto outsider = usk("outsider@example.com");
  EXPECT_FALSE(
      ibbe::core::PreparedPartition::prepare(keys.pk, outsider, users)
          .has_value());
  auto too_many = make_users(33);
  auto key = usk(too_many[0]);
  EXPECT_FALSE(
      ibbe::core::PreparedPartition::prepare(keys.pk, key, too_many)
          .has_value());
}

// ----------------------------------------------------- explicit exponents

void expect_same_bytes(const ibbe::core::EncryptResult& got,
                       const ibbe::core::EncryptResult& want,
                       const std::string& what) {
  EXPECT_EQ(got.bk.to_bytes(), want.bk.to_bytes()) << what;
  EXPECT_EQ(got.ct.to_bytes(), want.ct.to_bytes()) << what;
}

TEST(IbbeExponent, ExponentPathsEqualTheMskAndPkPathsBytewise) {
  using ibbe::core::partition_exponent;
  Drbg rng(23);
  const SystemKeys keys = ibbe::core::setup(33, rng);
  for (std::size_t n : {1u, 16u, 33u}) {
    const auto users = make_users(n, "exp" + std::to_string(n) + "-");
    const std::string tag = "|S| = " + std::to_string(n);
    const auto k = ibbe::core::random_nonzero_fr(rng);
    ibbe::field::Fr s;
    const auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, k, &s);
    EXPECT_EQ(s, partition_exponent(keys.msk, users)) << tag;
    EXPECT_EQ(ibbe::ec::g2_to_bytes(ibbe::core::compute_c3_public(keys.pk, users)),
              ibbe::ec::g2_to_bytes(enc.ct.c3))
        << tag;
    expect_same_bytes(ibbe::core::encrypt_with_exponent(keys.pk, s, k), enc,
                      "encrypt, " + tag);

    // A join with a re-key: the grown exponent, or the grown C3 re-keyed.
    const auto k2 = ibbe::core::random_nonzero_fr(rng);
    const Identity joiner = "joiner";
    const auto factor = partition_exponent(keys.msk, std::span(&joiner, 1));
    BroadcastCiphertext grown = enc.ct;
    grown.c3 = grown.c3.mul(factor);
    expect_same_bytes(ibbe::core::encrypt_with_exponent(keys.pk, s * factor, k2),
                      ibbe::core::rekey(keys.pk, grown, k2), "join, " + tag);

    // A removal is a fresh ciphertext for the exponent left behind.
    const std::span<const Identity> removed(users.data(), (n + 1) / 2);
    const auto s_left = s * partition_exponent(keys.msk, removed).inverse();
    expect_same_bytes(
        ibbe::core::encrypt_with_exponent(keys.pk, s_left, k2),
        ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct, removed, k2),
        "removal, " + tag);
  }
}

// ------------------------------------------------------------- golden pin

TEST(IbbeGolden, PairingOutputsArePinned) {
  // One SHA-256 over every pairing-derived output of a seeded fixture: the
  // one-shot decrypt of every member at |S| in {1, 16, 33}, the prepared
  // decrypt, one client's decrypts across several partitions (with a
  // non-member slot), verify_user_key verdicts and the HE-IBE grant
  // entries. GT values are canonical after the final exponentiation, so a
  // change to how Miller lines are tabulated or evaluated must leave this
  // hash alone. It must hold on both Montgomery backends
  // (IBBE_FORCE_PORTABLE_MUL=1).
  Drbg rng(0x601DE);
  auto keys = ibbe::core::setup(33, rng);
  ibbe::crypto::Sha256 h;
  auto absorb = [&](const std::optional<ibbe::pairing::Gt>& bk) {
    if (bk) {
      h.update(bk->to_bytes());
    } else {
      h.update("nullopt");
    }
  };
  auto absorb_verdict = [&](bool ok) { h.update(ok ? "valid" : "invalid"); };

  const auto client = ibbe::core::extract_user_key(keys.msk, "client@example.com");
  std::vector<std::vector<Identity>> sets;
  std::vector<BroadcastCiphertext> cts;
  for (std::size_t n : {1u, 16u, 33u}) {
    auto set = make_users(n, "golden" + std::to_string(n) + "-");
    set[n / 2] = client.id;
    auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, set, rng);
    for (const auto& id : set) {
      auto key = ibbe::core::extract_user_key(keys.msk, id);
      absorb(ibbe::core::decrypt(keys.pk, key, set, enc.ct));
      auto part = ibbe::core::PreparedPartition::prepare(keys.pk, key, set);
      ASSERT_TRUE(part.has_value());
      absorb(ibbe::core::decrypt(*part, enc.ct));
      absorb_verdict(ibbe::core::verify_user_key(keys.pk, key));
    }
    sets.push_back(std::move(set));
    cts.push_back(enc.ct);
  }
  auto stranger_set = make_users(4, "stranger");
  auto stranger = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, stranger_set, rng);
  absorb(ibbe::core::decrypt(keys.pk, client, stranger_set, stranger.ct));

  // The client across four partitions (one it is not in) through the
  // one-shot decrypt, then its member partitions prepared once and decrypted
  // in reverse order.
  absorb(ibbe::core::decrypt(keys.pk, client, sets[1], cts[1]));
  absorb(ibbe::core::decrypt(keys.pk, client, stranger_set, stranger.ct));
  absorb(ibbe::core::decrypt(keys.pk, client, sets[0], cts[0]));
  absorb(ibbe::core::decrypt(keys.pk, client, sets[2], cts[2]));
  std::vector<ibbe::core::PreparedPartition> parts;
  for (const auto& set : sets) {
    parts.push_back(*ibbe::core::PreparedPartition::prepare(keys.pk, client, set));
  }
  for (std::size_t i = parts.size(); i-- > 0;) {
    absorb(ibbe::core::decrypt(parts[i], cts[i]));
  }

  // Rejected keys: a valid value under another identity, and a tampered value.
  absorb_verdict(ibbe::core::verify_user_key(keys.pk, {"forged", client.value}));
  absorb_verdict(ibbe::core::verify_user_key(
      keys.pk, {client.id, client.value + ibbe::ec::G1::generator()}));

  ibbe::he::HeIbeScheme he(7);
  auto members = make_users(12, "he");
  he.create_group(members);
  he.add_user("late@example.com");
  he.remove_user(members[3]);
  h.update(he.entries_digest());

  EXPECT_EQ(ibbe::util::to_hex(h.finish()),
            "99019abc38a00f7a1633fc704fa9c2c30d3adbcebe49c088779dce3fce83d8e5");
}

}  // namespace

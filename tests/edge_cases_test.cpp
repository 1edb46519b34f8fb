// Edge cases and boundary behaviour across the stack — the "unhappy paths"
// that unit suites for the happy path tend to miss.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "field/fp2.h"
#include "ibbe/ibbe.h"
#include "pairing/pairing.h"

namespace {

using ibbe::bigint::U256;
using ibbe::crypto::Drbg;
using ibbe::field::Fp;
using ibbe::field::Fp2;
using ibbe::field::Fr;

// ------------------------------------------------------------------- field

TEST(FieldEdge, ZeroBehaviour) {
  EXPECT_TRUE(Fp::zero().is_zero());
  EXPECT_EQ(Fp::zero().neg(), Fp::zero());
  EXPECT_EQ(Fp::zero().square(), Fp::zero());
  EXPECT_THROW((void)Fp::zero().inverse(), std::domain_error);
  auto root = Fp::zero().sqrt();
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_zero());
}

TEST(FieldEdge, MaxValueArithmetic) {
  // p-1 = -1: squares to 1, inverts to itself.
  Fp minus_one = Fp::zero() - Fp::one();
  EXPECT_EQ(minus_one.square(), Fp::one());
  EXPECT_EQ(minus_one.inverse(), minus_one);
  EXPECT_EQ(minus_one + Fp::one(), Fp::zero());
}

TEST(FieldEdge, PowZeroAndOne) {
  Fp a = Fp::from_u64(12345);
  EXPECT_EQ(a.pow(U256::zero()), Fp::one());
  EXPECT_EQ(a.pow(U256::one()), a);
  EXPECT_EQ(Fp::zero().pow(U256::from_u64(5)), Fp::zero());
}

TEST(FieldEdge, Fp2ZeroInverseThrows) {
  EXPECT_THROW((void)Fp2::zero().inverse(), std::domain_error);
}

TEST(FieldEdge, Fp2SqrtOfZeroAndOne) {
  auto z = Fp2::zero().sqrt();
  ASSERT_TRUE(z.has_value());
  EXPECT_TRUE(z->is_zero());
  auto o = Fp2::one().sqrt();
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->square(), Fp2::one());
}

TEST(FieldEdge, FrReductionBoundary) {
  // r itself reduces to zero; r-1 stays.
  EXPECT_TRUE(Fr::from_u256_reduce(Fr::modulus()).is_zero());
  U256 r_minus_1;
  ibbe::bigint::sub_with_borrow(Fr::modulus(), U256::one(), r_minus_1);
  EXPECT_FALSE(Fr::from_u256_reduce(r_minus_1).is_zero());
  EXPECT_THROW((void)Fr::from_u256(Fr::modulus()), std::invalid_argument);
}

// ------------------------------------------------------------------- curve

TEST(CurveEdge, NegationOfInfinity) {
  EXPECT_TRUE(ibbe::ec::G1::infinity().neg().is_infinity());
  EXPECT_TRUE((ibbe::ec::G1::infinity() + ibbe::ec::G1::infinity()).is_infinity());
}

TEST(CurveEdge, AddingInverseCoordinatesGivesInfinity) {
  auto g = ibbe::ec::G2::generator();
  auto p = g.scalar_mul(U256::from_u64(77));
  EXPECT_TRUE((p + p.neg()).is_infinity());
  EXPECT_TRUE((p - p).is_infinity());
}

TEST(CurveEdge, ScalarLargerThanOrderWraps) {
  // k and k + r act identically on order-r points.
  auto g = ibbe::ec::G1::generator();
  U256 k = U256::from_u64(123456789);
  U256 k_plus_r;
  ibbe::bigint::add_with_carry(k, ibbe::field::Fr::modulus(), k_plus_r);
  EXPECT_EQ(g.scalar_mul(k), g.scalar_mul(k_plus_r));
}

// -------------------------------------------------------------------- ibbe

struct IbbeEdge : ::testing::Test {
  IbbeEdge() : rng(31), keys(ibbe::core::setup(4, rng)) {}
  Drbg rng;
  ibbe::core::SystemKeys keys;
};

TEST_F(IbbeEdge, SingleUserGroupRoundTrips) {
  std::vector<ibbe::core::Identity> solo = {"only-member"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, solo, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, solo[0]);
  auto bk = ibbe::core::decrypt(keys.pk, usk, solo, enc.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, enc.bk);
  // The public path agrees even at the degenerate size.
  auto pub = ibbe::core::encrypt_public(keys.pk, solo, rng);
  EXPECT_EQ(pub.ct.c3, enc.ct.c3);
}

TEST_F(IbbeEdge, ExactlyFullPartitionWorks) {
  auto users = std::vector<ibbe::core::Identity>{"a", "b", "c", "d"};  // == m
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, "d");
  EXPECT_TRUE(ibbe::core::decrypt(keys.pk, usk, users, enc.ct).has_value());
}

TEST_F(IbbeEdge, RemoveDownToSingleUser) {
  std::vector<ibbe::core::Identity> users = {"a", "b"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto rem = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct,
                                              std::span(&users[1], 1), rng);
  std::vector<ibbe::core::Identity> remaining = {"a"};
  auto usk = ibbe::core::extract_user_key(keys.msk, "a");
  auto bk = ibbe::core::decrypt(keys.pk, usk, remaining, rem.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, rem.bk);
}

TEST_F(IbbeEdge, RemoveEveryUserLeavesUndecryptableCiphertext) {
  std::vector<ibbe::core::Identity> users = {"a"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto rem = ibbe::core::remove_users_with_msk(keys.msk, keys.pk, enc.ct, users,
                                              rng);
  // C3 collapses to h (empty product); no identity is in the receiver set.
  EXPECT_EQ(rem.ct.c3, keys.pk.h());
  auto usk = ibbe::core::extract_user_key(keys.msk, "a");
  EXPECT_FALSE(ibbe::core::decrypt(keys.pk, usk, {}, rem.ct).has_value());
}

TEST_F(IbbeEdge, DuplicateIdentitiesInReceiverSetStillDecrypt) {
  // Pathological caller input: the ciphertext then encodes (gamma+H(a))^2,
  // and decrypt with the *same duplicated set* remains consistent.
  std::vector<ibbe::core::Identity> dup = {"a", "a"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, dup, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, "a");
  auto bk = ibbe::core::decrypt(keys.pk, usk, dup, enc.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, enc.bk);
}

TEST_F(IbbeEdge, UnicodeAndLongIdentities) {
  std::vector<ibbe::core::Identity> users = {
      std::string("émile@exámple.com"), std::string(500, 'x'),
      std::string("\x01\x02 binary \xff id")};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  for (const auto& id : users) {
    auto usk = ibbe::core::extract_user_key(keys.msk, id);
    auto bk = ibbe::core::decrypt(keys.pk, usk, users, enc.ct);
    ASSERT_TRUE(bk.has_value());
    EXPECT_EQ(*bk, enc.bk);
  }
}

TEST_F(IbbeEdge, RekeyOfRekeyStaysConsistent) {
  std::vector<ibbe::core::Identity> users = {"a", "b"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto r1 = ibbe::core::rekey(keys.pk, enc.ct, rng);
  auto r2 = ibbe::core::rekey(keys.pk, r1.ct, rng);
  EXPECT_NE(r1.bk, r2.bk);
  auto usk = ibbe::core::extract_user_key(keys.msk, "b");
  auto bk = ibbe::core::decrypt(keys.pk, usk, users, r2.ct);
  ASSERT_TRUE(bk.has_value());
  EXPECT_EQ(*bk, r2.bk);
}

}  // namespace

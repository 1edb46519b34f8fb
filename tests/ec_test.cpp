#include <gtest/gtest.h>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "test_util.h"

namespace {

using ibbe::bigint::U256;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::ec::P256Point;
using ibbe::testutil::random_u256;
using ibbe::testutil::rng;

template <typename Point>
class CurveGroupTest : public ::testing::Test {};

using CurveTypes = ::testing::Types<G1, G2, P256Point>;
TYPED_TEST_SUITE(CurveGroupTest, CurveTypes);

TYPED_TEST(CurveGroupTest, GeneratorOnCurve) {
  EXPECT_TRUE(TypeParam::generator().on_curve());
  EXPECT_FALSE(TypeParam::generator().is_infinity());
}

TYPED_TEST(CurveGroupTest, InfinityBehaves) {
  auto inf = TypeParam::infinity();
  auto g = TypeParam::generator();
  EXPECT_TRUE(inf.is_infinity());
  EXPECT_TRUE(inf.on_curve());
  EXPECT_EQ(inf + g, g);
  EXPECT_EQ(g + inf, g);
  EXPECT_TRUE(inf.dbl().is_infinity());
  EXPECT_FALSE(inf.to_affine().has_value());
}

TYPED_TEST(CurveGroupTest, AdditionLaws) {
  auto g = TypeParam::generator();
  auto a = g.scalar_mul(random_u256());
  auto b = g.scalar_mul(random_u256());
  auto c = g.scalar_mul(random_u256());
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_TRUE((a - a).is_infinity());
  EXPECT_TRUE((a + b).on_curve());
}

TYPED_TEST(CurveGroupTest, DoublingMatchesAddition) {
  auto g = TypeParam::generator();
  auto a = g.scalar_mul(random_u256());
  EXPECT_EQ(a.dbl(), a + a);
  EXPECT_TRUE(a.dbl().on_curve());
}

TYPED_TEST(CurveGroupTest, SmallScalarsMatchRepeatedAddition) {
  auto g = TypeParam::generator();
  auto acc = TypeParam::infinity();
  for (std::uint64_t k = 0; k <= 17; ++k) {
    EXPECT_EQ(g.scalar_mul(U256::from_u64(k)), acc) << "k=" << k;
    acc += g;
  }
}

TYPED_TEST(CurveGroupTest, ScalarMulDistributes) {
  auto g = TypeParam::generator();
  U256 a = U256::from_u64(rng()());
  U256 b = U256::from_u64(rng()());
  U256 sum;
  ibbe::bigint::add_with_carry(a, b, sum);
  EXPECT_EQ(g.scalar_mul(a) + g.scalar_mul(b), g.scalar_mul(sum));
}

TYPED_TEST(CurveGroupTest, WnafMatchesDoubleAndAdd) {
  auto g = TypeParam::generator();
  for (int i = 0; i < 10; ++i) {
    U256 k = random_u256();
    EXPECT_EQ(g.scalar_mul_wnaf(k), g.scalar_mul(k));
  }
}

TYPED_TEST(CurveGroupTest, WnafWindowSweep) {
  auto g = TypeParam::generator();
  U256 k = random_u256();
  auto expected = g.scalar_mul(k);
  for (unsigned w : {2u, 3u, 4u, 5u, 6u}) {
    EXPECT_EQ(g.scalar_mul_wnaf(k, w), expected) << "window " << w;
  }
}

TYPED_TEST(CurveGroupTest, WnafEdgeScalars) {
  auto g = TypeParam::generator();
  EXPECT_TRUE(g.scalar_mul_wnaf(U256::zero()).is_infinity());
  EXPECT_EQ(g.scalar_mul_wnaf(U256::one()), g);
  EXPECT_EQ(g.scalar_mul_wnaf(U256::from_u64(2)), g.dbl());
  // All-ones low word exercises long carry chains in the recoding.
  EXPECT_EQ(g.scalar_mul_wnaf(U256::from_u64(~std::uint64_t{0})),
            g.scalar_mul(U256::from_u64(~std::uint64_t{0})));
}

TEST(G1, WnafHandlesGroupOrderNeighborhood) {
  auto g = G1::generator();
  U256 r = ibbe::field::Fr::modulus();
  EXPECT_TRUE(g.scalar_mul_wnaf(r).is_infinity());
  U256 r_minus_1;
  ibbe::bigint::sub_with_borrow(r, U256::one(), r_minus_1);
  EXPECT_EQ(g.scalar_mul_wnaf(r_minus_1), g.neg());
}

// ------------------------------------------------------------ BN specifics

TEST(G1, GeneratorHasOrderR) {
  EXPECT_TRUE(G1::generator().scalar_mul(ibbe::field::Fr::modulus()).is_infinity());
}

TEST(G2, GeneratorHasOrderR) {
  // This also pins down the hard-coded G2 generator constants.
  EXPECT_TRUE(G2::generator().scalar_mul(ibbe::field::Fr::modulus()).is_infinity());
}

TEST(P256, GeneratorHasOrderN) {
  EXPECT_TRUE(P256Point::generator()
                  .scalar_mul(ibbe::field::P256Fr::modulus())
                  .is_infinity());
}

TEST(P256, KnownDoubleOfGenerator) {
  // 2G from the NIST/SECG test vectors.
  auto dbl = P256Point::generator().dbl().to_affine();
  ASSERT_TRUE(dbl.has_value());
  EXPECT_EQ(dbl->first.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(dbl->second.to_hex(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

// ---------------------------------------------------------- serialization

TEST(G1Serialization, RoundTrip) {
  for (int i = 0; i < 10; ++i) {
    G1 p = G1::generator().scalar_mul(random_u256());
    auto bytes = ibbe::ec::g1_to_bytes(p);
    ASSERT_EQ(bytes.size(), ibbe::ec::g1_serialized_size);
    EXPECT_EQ(ibbe::ec::g1_from_bytes(bytes), p);
  }
}

TEST(G1Serialization, InfinityRoundTrip) {
  auto bytes = ibbe::ec::g1_to_bytes(G1::infinity());
  EXPECT_EQ(bytes[0], 0x00);
  EXPECT_TRUE(ibbe::ec::g1_from_bytes(bytes).is_infinity());
}

TEST(G1Serialization, BothParitiesRecoverable) {
  G1 p = G1::generator().scalar_mul(U256::from_u64(5));
  EXPECT_EQ(ibbe::ec::g1_from_bytes(ibbe::ec::g1_to_bytes(p)), p);
  EXPECT_EQ(ibbe::ec::g1_from_bytes(ibbe::ec::g1_to_bytes(p.neg())), p.neg());
}

TEST(G1Serialization, RejectsMalformed) {
  EXPECT_THROW(ibbe::ec::g1_from_bytes(std::vector<std::uint8_t>(5)),
               ibbe::util::DeserializeError);
  std::vector<std::uint8_t> bad(33, 0);
  bad[0] = 0x07;  // invalid flag
  EXPECT_THROW(ibbe::ec::g1_from_bytes(bad), ibbe::util::DeserializeError);
}

TEST(G1Serialization, RejectsXNotOnCurve) {
  // x = 4: rhs = 64 + 3 = 67 must not be a QR for this to hold; if it were,
  // pick the next x. Verified empirically that x=4 is off-curve for BN254.
  std::vector<std::uint8_t> data(33, 0);
  data[0] = 0x02;
  data[32] = 4;
  EXPECT_THROW(ibbe::ec::g1_from_bytes(data), ibbe::util::DeserializeError);
}

TEST(G2Serialization, RoundTrip) {
  for (int i = 0; i < 5; ++i) {
    G2 p = G2::generator().scalar_mul(random_u256());
    auto bytes = ibbe::ec::g2_to_bytes(p);
    ASSERT_EQ(bytes.size(), ibbe::ec::g2_serialized_size);
    EXPECT_EQ(ibbe::ec::g2_from_bytes(bytes), p);
  }
}

TEST(G2Serialization, InfinityRoundTrip) {
  auto bytes = ibbe::ec::g2_to_bytes(G2::infinity());
  EXPECT_TRUE(ibbe::ec::g2_from_bytes(bytes).is_infinity());
}

TEST(G2Serialization, SubgroupCheckCatchesTwistTorsion) {
  // Twist points decoded without the check: every one outside the order-r
  // subgroup (by the r-multiply oracle) must be refused with it.
  bool found_rejection = false;
  for (const G2& point : ibbe::testutil::unchecked_twist_points(8)) {
    if (point.scalar_mul(ibbe::field::Fr::modulus()).is_infinity()) continue;
    EXPECT_THROW(ibbe::ec::g2_from_bytes(ibbe::ec::g2_to_bytes(point)),
                 ibbe::util::DeserializeError);
    found_rejection = true;
  }
  EXPECT_TRUE(found_rejection)
      << "no twist-torsion candidate found in the scanned range";
}

TEST(P256Serialization, RoundTrip) {
  for (int i = 0; i < 10; ++i) {
    P256Point p = P256Point::generator().scalar_mul(random_u256());
    auto bytes = ibbe::ec::p256_to_bytes(p);
    ASSERT_EQ(bytes.size(), ibbe::ec::p256_serialized_size);
    EXPECT_EQ(ibbe::ec::p256_from_bytes(bytes), p);
  }
}

// ---------------------------------------------------------- hash-to-curve

TEST(HashToG1, DeterministicAndOnCurve) {
  auto p1 = ibbe::ec::hash_to_g1("alice@example.com");
  auto p2 = ibbe::ec::hash_to_g1("alice@example.com");
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(p1.on_curve());
  EXPECT_FALSE(p1.is_infinity());
}

TEST(HashToG1, DistinctInputsGiveDistinctPoints) {
  auto p1 = ibbe::ec::hash_to_g1("alice@example.com");
  auto p2 = ibbe::ec::hash_to_g1("bob@example.com");
  EXPECT_FALSE(p1 == p2);
}

TEST(HashToG1, OutputHasOrderR) {
  auto p = ibbe::ec::hash_to_g1("charlie@example.com");
  EXPECT_TRUE(p.scalar_mul(ibbe::field::Fr::modulus()).is_infinity());
}

}  // namespace

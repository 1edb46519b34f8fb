#include <gtest/gtest.h>

#include <array>
#include <random>

#include "ec/curves.h"
#include "field/fields.h"
#include "pairing/pairing.h"
#include "support/pairing_oracle.h"
#include "util/hex.h"

namespace {

using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::field::Fp12;
using ibbe::field::Fr;
using ibbe::pairing::Gt;

std::mt19937_64& rng() {
  static std::mt19937_64 gen(1234);
  return gen;
}

Fr random_fr() {
  ibbe::bigint::U256 v;
  for (auto& limb : v.limb) limb = rng()();
  Fr out = Fr::from_u256_reduce(v);
  return out.is_zero() ? Fr::one() : out;
}

TEST(Pairing, NonDegenerate) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  EXPECT_FALSE(e.is_one());
}

TEST(Pairing, InfinityMapsToOne) {
  EXPECT_TRUE(ibbe::pairing::pairing(G1::infinity(), G2::generator()).is_one());
  EXPECT_TRUE(ibbe::pairing::pairing(G1::generator(), G2::infinity()).is_one());
}

TEST(Pairing, OutputHasOrderR) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  EXPECT_TRUE(e.exp(Fr::zero()).is_one());
  // e^r == 1 <=> e^(r-1) == e^-1
  Fr r_minus_1 = Fr::zero() - Fr::one();
  EXPECT_EQ(e.exp(r_minus_1), e.inverse());
}

class PairingBilinearity : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PairingBilinearity, ::testing::Values(1, 2, 3));

TEST_P(PairingBilinearity, ScalarsMoveAcross) {
  Fr a = random_fr();
  Fr b = random_fr();
  G1 pa = G1::generator().mul(a);
  G2 qb = G2::generator().mul(b);

  Gt lhs = ibbe::pairing::pairing(pa, qb);
  Gt base = ibbe::pairing::pairing(G1::generator(), G2::generator());
  EXPECT_EQ(lhs, base.exp(a * b));
  EXPECT_EQ(ibbe::pairing::pairing(pa, G2::generator()), base.exp(a));
  EXPECT_EQ(ibbe::pairing::pairing(G1::generator(), qb), base.exp(b));
}

TEST(Pairing, AdditiveInFirstArgument) {
  Fr a = random_fr(), b = random_fr();
  G1 p1 = G1::generator().mul(a);
  G1 p2 = G1::generator().mul(b);
  Gt lhs = ibbe::pairing::pairing(p1 + p2, G2::generator());
  Gt rhs = ibbe::pairing::pairing(p1, G2::generator()) *
           ibbe::pairing::pairing(p2, G2::generator());
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, AdditiveInSecondArgument) {
  Fr a = random_fr(), b = random_fr();
  G2 q1 = G2::generator().mul(a);
  G2 q2 = G2::generator().mul(b);
  Gt lhs = ibbe::pairing::pairing(G1::generator(), q1 + q2);
  Gt rhs = ibbe::pairing::pairing(G1::generator(), q1) *
           ibbe::pairing::pairing(G1::generator(), q2);
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, NegationInverts) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  Gt e_neg = ibbe::pairing::pairing(G1::generator().neg(), G2::generator());
  EXPECT_EQ(e * e_neg, Gt::one());
  EXPECT_EQ(e_neg, e.inverse());
}

TEST(Pairing, FastFinalExpMatchesNaive) {
  Fp12 f = ibbe::pairing::miller_loop(G1::generator(), G2::generator());
  EXPECT_EQ(ibbe::pairing::final_exponentiation(f),
            ibbe::pairing::final_exponentiation_naive(f));
}

TEST(Pairing, FastFinalExpMatchesNaiveOnRandomPoints) {
  // The u-decomposed hard part must agree with the naive (p^4-p^2+1)/r
  // exponentiation on arbitrary Miller-loop outputs, not just the generator
  // pairing.
  for (int i = 0; i < 3; ++i) {
    Fp12 f = ibbe::pairing::miller_loop(G1::generator().mul(random_fr()),
                                        G2::generator().mul(random_fr()));
    EXPECT_EQ(ibbe::pairing::final_exponentiation(f),
              ibbe::pairing::final_exponentiation_naive(f));
  }
}

TEST(Pairing, ProjectiveMillerLoopMatchesAffine) {
  // The inversion-free projective loop and the affine oracle walk different
  // addition chains (NAF vs binary) but compute the same f_{6u+2,Q}(P) up to
  // factors the final exponentiation kills, so compare after final exp.
  for (int i = 0; i < 4; ++i) {
    G1 p = G1::generator().mul(random_fr());
    G2 q = G2::generator().mul(random_fr());
    Fp12 proj = ibbe::pairing::miller_loop(p, q);
    Fp12 affine = ibbe::pairing::miller_loop_affine(p, q);
    EXPECT_EQ(ibbe::pairing::final_exponentiation(proj),
              ibbe::pairing::final_exponentiation(affine));
  }
}

TEST(Pairing, AffineMillerLoopInfinityIsOne) {
  EXPECT_TRUE(
      ibbe::pairing::miller_loop_affine(G1::infinity(), G2::generator()).is_one());
  EXPECT_TRUE(
      ibbe::pairing::miller_loop_affine(G1::generator(), G2::infinity()).is_one());
}

TEST(G2Prepared, MatchesUnpreparedPairing) {
  for (int i = 0; i < 3; ++i) {
    G1 p = G1::generator().mul(random_fr());
    G2 q = G2::generator().mul(random_fr());
    ibbe::pairing::G2Prepared prep(q);
    EXPECT_EQ(ibbe::pairing::pairing(p, prep), ibbe::pairing::pairing(p, q));
  }
}

TEST(G2Prepared, InfinityPairsToOne) {
  ibbe::pairing::G2Prepared prep_inf;
  EXPECT_TRUE(prep_inf.is_infinity());
  EXPECT_TRUE(ibbe::pairing::pairing(G1::generator(), prep_inf).is_one());
  EXPECT_TRUE(
      ibbe::pairing::G2Prepared(G2::infinity()).is_infinity());
}

TEST(G2Prepared, PreparedProductMatchesIndependentPairings) {
  Fr a = random_fr(), b = random_fr(), c = random_fr();
  G2 q1 = G2::generator().mul(b);
  G2 q2 = G2::generator().mul(c);
  ibbe::pairing::G2Prepared prep1(q1), prep2(q2);
  std::array<ibbe::pairing::PairingInput, 2> inputs = {{
      {G1::generator().mul(a), &prep1},
      {G1::generator(), &prep2},
  }};
  Gt combined = ibbe::pairing::pairing_product_prepared(inputs);
  Gt expected = ibbe::pairing::pairing(inputs[0].g1, q1) *
                ibbe::pairing::pairing(inputs[1].g1, q2);
  EXPECT_EQ(combined, expected);
}

TEST(G2Prepared, NullInputRejected) {
  std::array<ibbe::pairing::PairingInput, 1> inputs = {{{G1::generator(), nullptr}}};
  EXPECT_THROW((void)ibbe::pairing::pairing_product_prepared(inputs),
               std::invalid_argument);
}

TEST(Pairing, ProductMatchesIndividualPairings) {
  Fr a = random_fr(), b = random_fr();
  std::vector<std::pair<G1, G2>> pairs = {
      {G1::generator().mul(a), G2::generator()},
      {G1::generator(), G2::generator().mul(b)},
  };
  Gt combined = ibbe::pairing::pairing_product(pairs);
  Gt expected = ibbe::pairing::pairing(pairs[0].first, pairs[0].second) *
                ibbe::pairing::pairing(pairs[1].first, pairs[1].second);
  EXPECT_EQ(combined, expected);
}

TEST(Pairing, EmptyProductIsOne) {
  EXPECT_TRUE(ibbe::pairing::pairing_product({}).is_one());
}

TEST(Pairing, ProductSkipsInfinityPairs) {
  Fr a = random_fr();
  std::vector<std::pair<G1, G2>> pairs = {
      {G1::generator().mul(a), G2::generator()},
      {G1::infinity(), G2::generator()},
      {G1::generator(), G2::infinity()},
  };
  EXPECT_EQ(ibbe::pairing::pairing_product(pairs),
            ibbe::pairing::pairing(pairs[0].first, pairs[0].second));
}

TEST(Pairing, RegressionPinOnGeneratorPairing) {
  // Not an external vector (GT serialization is implementation-defined);
  // this pins e(G1, G2) so accidental changes to the tower, the Miller loop,
  // the final exponentiation or the serialization order are caught loudly.
  // Validity of the value itself is established by the bilinearity and
  // naive-final-exponentiation cross-checks above.
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  auto bytes = e.to_bytes();
  EXPECT_EQ(ibbe::util::to_hex({bytes.data(), 64}),
            "12c70e90e12b7874510cd1707e8856f71bf7f61d72631e268fca81000db9a1f5"
            "084f330485b09e866bc2f2ea2b897394deaf3f12aa31f28cb0552990967d4704");
  EXPECT_EQ(ibbe::util::to_hex(e.hash()),
            "fb26b1c6e9acaab5348b05c9e7aa5e9418aa797c24f49052ae4585632b1cb52b");
}

TEST(Gt, SerializationRoundTrip) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  auto bytes = e.to_bytes();
  ASSERT_EQ(bytes.size(), Gt::serialized_size);
  EXPECT_EQ(Gt::from_bytes(bytes), e);
}

TEST(Gt, HashIsStableAndKeyed) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  EXPECT_EQ(e.hash(), e.hash());
  Gt e2 = e.exp(Fr::from_u64(2));
  EXPECT_NE(e.hash(), e2.hash());
}

TEST(Gt, ExpHomomorphism) {
  Gt e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  Fr a = random_fr(), b = random_fr();
  EXPECT_EQ(e.exp(a) * e.exp(b), e.exp(a + b));
  EXPECT_EQ(e.exp(a).exp(b), e.exp(a * b));
}

}  // namespace

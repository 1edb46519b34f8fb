// GLV decomposition, mul routing, the MSM engine, and the subproduct-tree
// polynomial expansion. The comb and the ladder behind mul are checked in
// endo_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "field/fields.h"
#include "ibbe/poly.h"
#include "support/biguint.h"
#include "test_util.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::U256;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::ec::P256Point;
using ibbe::field::Fr;
using ibbe::testutil::edge_scalars;
using ibbe::testutil::random_fr;
using ibbe::testutil::random_u256;

/// (-1)^neg0 k0 + (-1)^neg1 k1 eig mod r, computed with BigUInt.
BigUInt recombine(const ibbe::bigint::Decomp<2>& d, const U256& eig) {
  const BigUInt n = BigUInt::from_u256(ibbe::field::Fr::modulus());
  BigUInt a = BigUInt::from_u256(d.k[0]) % n;
  if (d.neg[0] && !a.is_zero()) a = n - a;
  BigUInt b = BigUInt::from_u256(d.k[1]) * BigUInt::from_u256(eig) % n;
  if (d.neg[1] && !b.is_zero()) b = n - b;
  return (a + b) % n;
}

// ------------------------------------------------------------ decomposition

TEST(Glv, DecompositionRoundTripsAndIsShort) {
  const BigUInt n = BigUInt::from_u256(ibbe::field::Fr::modulus());
  auto scalars = edge_scalars();
  for (int i = 0; i < 50; ++i) scalars.push_back(random_u256());
  for (const U256& k : scalars) {
    auto d = ibbe::ec::G1Ops::decompose(k);
    EXPECT_EQ(recombine(d, ibbe::ec::glv_constants().lambda),
              BigUInt::from_u256(k) % n);
    // Below the comb span, with the spare bit for the top digit's carry.
    EXPECT_LT(d.k[0].bit_length(), ibbe::ec::G1Ops::kSpan);
    EXPECT_LT(d.k[1].bit_length(), ibbe::ec::G1Ops::kSpan);
  }
}

// ------------------------------------------------------------- mul routing

TEST(MulRouting, SpecializedMulMatchesGenericOracle) {
  // The Fr specializations of JacobianPoint::mul (comb tables for the
  // generators, GLV/GLS elsewhere) must agree with plain double-and-add.
  for (int i = 0; i < 5; ++i) {
    Fr k = random_fr();
    EXPECT_EQ(G1::generator().mul(k), G1::generator().scalar_mul(k.to_u256()));
    EXPECT_EQ(G2::generator().mul(k), G2::generator().scalar_mul(k.to_u256()));
    G1 p1 = G1::generator().dbl() + G1::generator();
    G2 p2 = G2::generator().dbl() + G2::generator();
    EXPECT_EQ(p1.mul(k), p1.scalar_mul(k.to_u256()));
    EXPECT_EQ(p2.mul(k), p2.scalar_mul(k.to_u256()));
  }
  ibbe::field::P256Fr k = ibbe::field::P256Fr::from_u256_reduce(random_u256());
  EXPECT_EQ(P256Point::generator().mul(k),
            P256Point::generator().scalar_mul(k.to_u256()));
  P256Point q = P256Point::generator().dbl();
  EXPECT_EQ(q.mul(k), q.scalar_mul(k.to_u256()));
}

// ----------------------------------------------------------------- the MSM

template <typename Point>
void check_msm_vs_naive(std::size_t n) {
  std::vector<Point> bases;
  std::vector<Fr> scalars;
  Point naive = Point::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    Point p = Point::generator().scalar_mul(random_u256());
    if (i == 1) p = Point::infinity();  // engine must skip infinity bases
    Fr k = random_fr();
    if (i == 2) k = Fr::zero();  // ... and zero scalars
    bases.push_back(p);
    scalars.push_back(k);
    naive += p.scalar_mul(k.to_u256());
  }
  EXPECT_EQ(ibbe::ec::msm(std::span<const Point>(bases),
                          std::span<const Fr>(scalars)),
            naive)
      << "n=" << n;
}

TEST(Msm, G1MatchesNaiveSum) {
  for (std::size_t n : {1u, 2u, 17u, 100u}) check_msm_vs_naive<G1>(n);
}

TEST(Msm, G2MatchesNaiveSum) {
  for (std::size_t n : {1u, 2u, 17u, 100u}) check_msm_vs_naive<G2>(n);
}

TEST(Msm, PippengerBoundaryMatchesStraus) {
  // n = 33 is the first Pippenger-routed size; n = 32 the last Straus one.
  for (std::size_t n : {32u, 33u}) check_msm_vs_naive<G1>(n);
}

TEST(Msm, GenericU256EngineOnP256) {
  std::vector<P256Point> bases;
  std::vector<U256> scalars;
  P256Point naive = P256Point::infinity();
  for (int i = 0; i < 7; ++i) {
    P256Point p = P256Point::generator().scalar_mul(random_u256());
    U256 k = random_u256();
    bases.push_back(p);
    scalars.push_back(k);
    naive += p.scalar_mul(k);
  }
  EXPECT_EQ(ibbe::ec::msm_u256(std::span<const P256Point>(bases),
                               std::span<const U256>(scalars)),
            naive);
}

TEST(Msm, EmptyAndAllZeroInputs) {
  EXPECT_TRUE(ibbe::ec::msm(std::span<const G1>{}, std::span<const Fr>{})
                  .is_infinity());
  std::vector<G1> bases{G1::generator()};
  std::vector<Fr> zeros{Fr::zero()};
  EXPECT_TRUE(ibbe::ec::msm(std::span<const G1>(bases),
                            std::span<const Fr>(zeros))
                  .is_infinity());
}

TEST(G2PowersMsm, MatchesNaiveSum) {
  std::vector<G2> bases;
  for (int i = 0; i < 9; ++i) {
    bases.push_back(G2::generator().scalar_mul(random_u256()));
  }
  ibbe::ec::G2PowersMsm prepared{std::span<const G2>(bases)};
  std::vector<Fr> coefs;
  G2 naive = G2::infinity();
  for (int i = 0; i < 9; ++i) {
    Fr k = i == 4 ? Fr::zero() : random_fr();
    coefs.push_back(k);
    naive += bases[static_cast<std::size_t>(i)].scalar_mul(k.to_u256());
  }
  EXPECT_EQ(prepared.msm(coefs), naive);
  // Shorter coefficient vectors use a prefix of the table.
  G2 prefix = G2::infinity();
  for (int i = 0; i < 4; ++i) {
    prefix += bases[static_cast<std::size_t>(i)].scalar_mul(coefs[static_cast<std::size_t>(i)].to_u256());
  }
  EXPECT_EQ(prepared.msm(std::span<const Fr>(coefs).first(4)), prefix);
}

// ----------------------------------------------------- polynomial expansion

TEST(Poly, SubproductTreeMatchesIncremental) {
  namespace poly = ibbe::core::poly;
  for (std::size_t n : {0u, 1u, 5u, 24u, 25u, 40u, 100u}) {
    std::vector<Fr> roots;
    for (std::size_t i = 0; i < n; ++i) roots.push_back(random_fr());
    auto tree = poly::expand_roots(roots);
    auto inc = poly::expand_roots_incremental(roots);
    ASSERT_EQ(tree.size(), n + 1);
    EXPECT_EQ(tree, inc) << "n=" << n;
  }
}

TEST(Poly, KaratsubaMatchesSchoolbookShape) {
  namespace poly = ibbe::core::poly;
  // Unequal operand sizes around the Karatsuba threshold.
  for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{30, 30},
                        {40, 25},
                        {25, 64},
                        {70, 33}}) {
    std::vector<Fr> a, b;
    for (std::size_t i = 0; i < na; ++i) a.push_back(random_fr());
    for (std::size_t i = 0; i < nb; ++i) b.push_back(random_fr());
    auto prod = poly::mul(a, b);
    ASSERT_EQ(prod.size(), na + nb - 1);
    // Evaluate both sides at a random point: mul must respect evaluation.
    Fr x = random_fr();
    auto eval = [&x](std::span<const Fr> p) {
      Fr acc = Fr::zero();
      for (std::size_t i = p.size(); i-- > 0;) acc = acc * x + p[i];
      return acc;
    };
    EXPECT_EQ(eval(prod), eval(a) * eval(b));
  }
}

}  // namespace

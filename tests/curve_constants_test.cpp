// The BN254 constants the library carries as literals, each pinned by its
// defining property with arbitrary-precision arithmetic (support/biguint.h)
// instead of by re-running a derivation:
//
//  * G1 GLV (ec::glv_constants()): beta^3 = 1 != beta, phi = [lambda] on G1,
//    lambda^2 + lambda + 1 = 0 (mod r), both basis rows in the lattice,
//    determinant r, the rounding reciprocals g = round(b 2^254 / r), and a
//    sub-scalar bound within G1Ops::kSpan.
//  * The psi/Frobenius lattice (ec::bn_psi_lattice()): eigenvalue 6u^2,
//    every row in the lattice, determinant +-r, the reciprocals
//    ghat_j = round(2^256 |C_j0| / r) and the coefficient signs from the
//    cofactors, and a sub-scalar bound that covers the Babai error and
//    equals G2Ops::kSpan.
//  * The endomorphisms themselves: psi = [6u^2] on G2, psi^4 - psi^2 + 1 = 0
//    on G2, and the p-power Frobenius = [6u^2] on order-r GT elements.
//  * The G2 membership test (ec::g2_in_subgroup): its row is the psi
//    lattice's row 2, psi^2 - t psi + p = 0 on the whole twist, and the
//    test endomorphism's norm is coprime to the twist cofactor.
//  * The tower: gamma_k = xi^(k(p-1)/6).
//  * Montgomery: R = 2^256 and R^2 = 2^512 (mod n) for all four moduli.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "bigint/mont.h"
#include "ec/curves.h"
#include "ec/glv.h"
#include "field/fields.h"
#include "field/fp12.h"
#include "field/tower_consts.h"
#include "support/biguint.h"
#include "support/pairing_oracle.h"
#include "test_util.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::SBig;
using ibbe::bigint::U256;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::field::Fp;
using ibbe::field::Fp12;
using ibbe::field::Fp2;
using ibbe::field::Fr;
namespace tu = ibbe::testutil;

BigUInt big(const U256& v) { return BigUInt::from_u256(v); }

const BigUInt& r_big() {
  static const BigUInt r = big(Fr::modulus());
  return r;
}

/// round(num / den), halves rounding up.
BigUInt round_div(const BigUInt& num, const BigUInt& den) {
  auto [q, rem] = BigUInt::divmod(num, den);
  return rem + rem >= den ? q + BigUInt(1) : q;
}

// -------------------------------------------------------------------- G1 GLV

TEST(GlvConstants, BetaIsAPrimitiveCubeRootOfUnity) {
  const Fp beta = ibbe::ec::glv_constants().beta;
  EXPECT_FALSE(beta.is_one());
  EXPECT_TRUE((beta * beta * beta).is_one());
}

TEST(GlvConstants, LambdaIsAPrimitiveCubeRootModR) {
  const BigUInt l = big(ibbe::ec::glv_constants().lambda);
  EXPECT_NE(l, BigUInt(1));
  EXPECT_LT(l, r_big());
  EXPECT_TRUE(((l * l + l + BigUInt(1)) % r_big()).is_zero());
}

TEST(GlvConstants, PhiActsAsLambda) {
  const U256& lambda = ibbe::ec::glv_constants().lambda;
  EXPECT_EQ(ibbe::ec::apply_phi(G1::generator()),
            G1::generator().scalar_mul(lambda));
  for (int i = 0; i < 3; ++i) {
    const G1 p = tu::random_g1();
    EXPECT_EQ(ibbe::ec::apply_phi(p), p.scalar_mul(lambda));
  }
}

TEST(GlvConstants, BasisRowsLieInTheLattice) {
  // v1 = (a1, -b1) and v2 = (a2, b2): a + b lambda = 0 (mod r).
  const auto& c = ibbe::ec::glv_constants();
  const BigUInt l = big(c.lambda);
  const SBig v1 = ibbe::bigint::sbig_sub({big(c.a1)}, {big(c.b1) * l});
  const SBig v2 = ibbe::bigint::sbig_add({big(c.a2)}, {big(c.b2) * l});
  EXPECT_TRUE(ibbe::bigint::sbig_mod(v1, r_big()).is_zero());
  EXPECT_TRUE(ibbe::bigint::sbig_mod(v2, r_big()).is_zero());
}

TEST(GlvConstants, BasisDeterminantIsR) {
  // det [[a1, -b1], [a2, b2]] = a1 b2 + a2 b1; +r fixes the rounding signs.
  const auto& c = ibbe::ec::glv_constants();
  EXPECT_EQ(big(c.a1) * big(c.b2) + big(c.a2) * big(c.b1), r_big());
}

TEST(GlvConstants, RoundingReciprocals) {
  const auto& c = ibbe::ec::glv_constants();
  EXPECT_EQ(big(c.g1), round_div(big(c.b2) << 254, r_big()));
  EXPECT_EQ(big(c.g2), round_div(big(c.b1) << 254, r_big()));
}

TEST(GlvConstants, SubScalarBoundFitsTheCombSpan) {
  // The rounded coefficients are off by less than 1 each, so
  // |k0| < a1 + a2 and |k1| < b1 + b2; G1Ops promises sub-scalars of fewer
  // than kSpan bits.
  const auto& c = ibbe::ec::glv_constants();
  EXPECT_LT((big(c.a1) + big(c.a2)).bit_length(), ibbe::ec::G1Ops::kSpan);
  EXPECT_LT((big(c.b1) + big(c.b2)).bit_length(), ibbe::ec::G1Ops::kSpan);
}

// --------------------------------------------------------- psi/GT lattice

using Lattice = ibbe::bigint::Lattice4;

SBig entry(const Lattice::Entry& e) { return {BigUInt(e.mag), e.neg}; }

/// Cofactor C_j0 of the basis matrix (3x3 minor without row j and column 0,
/// times (-1)^j).
SBig cofactor(const Lattice::Basis& b, std::size_t j) {
  using ibbe::bigint::sbig_add;
  using ibbe::bigint::sbig_mul;
  using ibbe::bigint::sbig_sub;
  std::array<std::array<SBig, 3>, 3> m;
  std::size_t row = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == j) continue;
    for (std::size_t col = 1; col < 4; ++col) m[row][col - 1] = entry(b[i][col]);
    ++row;
  }
  auto det2 = [&](std::size_t r0, std::size_t r1, std::size_t c0,
                  std::size_t c1) {
    return sbig_sub(sbig_mul(m[r0][c0], m[r1][c1]),
                    sbig_mul(m[r0][c1], m[r1][c0]));
  };
  SBig minor = sbig_add(
      sbig_sub(sbig_mul(m[0][0], det2(1, 2, 1, 2)),
               sbig_mul(m[0][1], det2(1, 2, 0, 2))),
      sbig_mul(m[0][2], det2(1, 2, 0, 1)));
  if (j % 2 == 1) minor.neg = !minor.neg;
  return minor;
}

SBig determinant(const Lattice::Basis& b) {
  SBig det;
  for (std::size_t j = 0; j < 4; ++j) {
    det = ibbe::bigint::sbig_add(
        det, ibbe::bigint::sbig_mul(entry(b[j][0]), cofactor(b, j)));
  }
  return det;
}

TEST(PsiLattice, EigenvalueIsSixUSquared) {
  const BigUInt u(tu::kBnU);
  EXPECT_EQ(big(ibbe::ec::bn_psi_lattice().lambda), BigUInt(6) * u * u);
}

TEST(PsiLattice, RowsLieInTheLattice) {
  const Lattice& lat = ibbe::ec::bn_psi_lattice();
  const BigUInt l = big(lat.lambda);
  for (std::size_t j = 0; j < 4; ++j) {
    SBig acc;
    BigUInt l_pow(1);
    for (std::size_t i = 0; i < 4; ++i) {
      acc = ibbe::bigint::sbig_add(
          acc, ibbe::bigint::sbig_mul(entry(lat.basis[j][i]), {l_pow}));
      l_pow = l_pow * l % r_big();
    }
    EXPECT_TRUE(ibbe::bigint::sbig_mod(acc, r_big()).is_zero()) << "row " << j;
  }
}

TEST(PsiLattice, DeterminantIsPlusMinusR) {
  EXPECT_EQ(determinant(ibbe::ec::bn_psi_lattice().basis).v, r_big());
}

TEST(PsiLattice, ReciprocalsAndSignsFollowTheCofactors) {
  // c_j = k C_j0 / det: ghat_j = round(2^256 |C_j0| / r), and the sign of
  // c_j for k >= 0 is the cofactor's, flipped when det = -r.
  const Lattice& lat = ibbe::ec::bn_psi_lattice();
  const bool det_neg = determinant(lat.basis).neg;
  for (std::size_t j = 0; j < 4; ++j) {
    const SBig c = cofactor(lat.basis, j);
    EXPECT_EQ(big(lat.ghat[j]), round_div(c.v << 256, r_big())) << "j=" << j;
    EXPECT_EQ(lat.csign[j], det_neg != c.neg) << "j=" << j;
  }
}

TEST(PsiLattice, SubScalarBoundCoversTheBabaiError) {
  // Babai round-off leaves |k_i| <= (1/2) sum_j |b_ji| plus the reciprocals'
  // 2^-256 slack; the bound must hold that, and stay within the 72 bits
  // (nine 8-bit digits) the fixed-base combs span.
  const Lattice& lat = ibbe::ec::bn_psi_lattice();
  for (std::size_t i = 0; i < 4; ++i) {
    BigUInt col;
    for (std::size_t j = 0; j < 4; ++j) col = col + BigUInt(lat.basis[j][i].mag);
    EXPECT_LT(((col >> 1) + BigUInt(1)).bit_length(), lat.max_sub_bits)
        << "column " << i;
  }
  EXPECT_EQ(lat.max_sub_bits, ibbe::ec::G2Ops::kSpan);
}

// ------------------------------------------------------------ endomorphisms

TEST(Endomorphisms, PsiActsAsSixUSquaredOnG2) {
  const U256& mu = ibbe::ec::bn_psi_lattice().lambda;
  EXPECT_EQ(ibbe::ec::apply_psi(G2::generator()),
            G2::generator().scalar_mul(mu));
  for (int i = 0; i < 3; ++i) {
    const G2 p = tu::random_g2();
    EXPECT_EQ(ibbe::ec::apply_psi(p), p.scalar_mul(mu));
  }
}

TEST(Endomorphisms, PsiSatisfiesTheCyclotomicQuarticOnG2) {
  // psi^4 - psi^2 + 1 = 0 on the order-r subgroup, the identity that makes
  // the four lattice dimensions independent.
  for (int i = 0; i < 3; ++i) {
    const G2 p = tu::random_g2();
    const G2 p2 = ibbe::ec::apply_psi(ibbe::ec::apply_psi(p));
    const G2 p4 = ibbe::ec::apply_psi(ibbe::ec::apply_psi(p2));
    EXPECT_EQ(p4 + p, p2);
  }
}

TEST(Endomorphisms, FrobeniusActsAsSixUSquaredOnGt) {
  const Fp12 x = tu::random_gt();
  ASSERT_FALSE(x.is_one());
  ASSERT_TRUE(tu::pow_big(x, r_big()).is_one());  // order r
  EXPECT_EQ(x.frobenius(), x.pow(ibbe::ec::bn_psi_lattice().lambda));
}

// ------------------------------------------------------- G2 membership test

BigUInt gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt rem = a % b;
    a = std::move(b);
    b = std::move(rem);
  }
  return a;
}

TEST(G2Membership, TestRowIsRowTwoOfThePsiLattice) {
  // ec::g2_in_subgroup hard-codes (u+1, u, u, -2u).
  const auto& row = ibbe::ec::bn_psi_lattice().basis[2];
  const std::uint64_t u = tu::kBnU;
  EXPECT_TRUE(row[0].mag == u + 1 && !row[0].neg);
  EXPECT_TRUE(row[1].mag == u && !row[1].neg);
  EXPECT_TRUE(row[2].mag == u && !row[2].neg);
  EXPECT_TRUE(row[3].mag == 2 * u && row[3].neg);
}

TEST(G2Membership, PsiSatisfiesTheFrobeniusQuadraticOnTheWholeTwist) {
  // psi^2 - t psi + p = 0 on E'(Fp2), not only on G2: the premise of the
  // soundness argument. Checked on twist points outside G2, whose order is
  // r times the cofactor h2 = 2p - r.
  const BigUInt p = big(Fp::modulus());
  const BigUInt t = p + BigUInt(1) - r_big();
  const BigUInt u(tu::kBnU);
  EXPECT_EQ(t, BigUInt(6) * u * u + BigUInt(1));
  for (const G2& q : tu::unchecked_twist_points(3)) {
    ASSERT_FALSE(q.scalar_mul(Fr::modulus()).is_infinity());
    EXPECT_TRUE(q.scalar_mul(Fr::modulus())
                    .scalar_mul(tu::twist_cofactor().to_u256())
                    .is_infinity());
    const G2 psi = ibbe::ec::apply_psi(q);
    EXPECT_EQ(ibbe::ec::apply_psi(psi) + q.scalar_mul(p.to_u256()),
              psi.scalar_mul(t.to_u256()));
  }
}

TEST(G2Membership, TestEndomorphismHasNoKernelOutsideG2) {
  // alpha = (u+1) + u psi + u psi^2 - 2u psi^3 reduces modulo
  // psi^2 = t psi - p (so psi^3 = (t^2 - p) psi - tp) to a + b psi with
  //   a = u + 1 - up + 2utp,   b = u + ut + 2up - 2ut^2,
  // both positive for BN254. #ker(alpha) divides its degree, the norm
  // N = a^2 + abt + b^2 p. r | N (G2 is in the kernel) and gcd(N, h2) = 1
  // (no cofactor point is), so alpha(Q) = O exactly on G2.
  const BigUInt p = big(Fp::modulus());
  const BigUInt t = p + BigUInt(1) - r_big();
  const BigUInt u(tu::kBnU);
  const BigUInt two(2);
  const BigUInt a = u + BigUInt(1) + two * u * t * p - u * p;
  const BigUInt b = u + u * t + two * u * p - two * u * t * t;
  const BigUInt n = a * a + a * b * t + b * b * p;
  EXPECT_TRUE((n % r_big()).is_zero());
  EXPECT_EQ(gcd(n, tu::twist_cofactor()), BigUInt(1));
}

// -------------------------------------------------------------------- tower

TEST(TowerConstants, GammaIsXiToTheKPMinusOneOverSix) {
  auto [e, rem] =
      BigUInt::divmod(big(Fp::modulus()) - BigUInt(1), BigUInt(6));
  ASSERT_TRUE(rem.is_zero());
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(ibbe::field::kFrobeniusGamma[k - 1],
              tu::pow_big(Fp2::xi(), e * BigUInt(k)))
        << "gamma_" << k;
  }
}

// --------------------------------------------------------------- Montgomery

TEST(MontgomeryConstants, RAndRSquaredForAllFourModuli) {
  for (const U256& n :
       {Fp::modulus(), Fr::modulus(), ibbe::field::P256Fp::modulus(),
        ibbe::field::P256Fr::modulus()}) {
    const ibbe::bigint::MontgomeryCtx ctx(n);
    const BigUInt nb = big(n);
    const BigUInt r = (BigUInt(1) << 256) % nb;
    EXPECT_EQ(big(ctx.one()), r) << n.to_hex();
    // to_mont(a) = a R^2 R^-1: equals a R only if the stored R^2 is 2^512.
    for (const U256& a : {U256::one(), ibbe::bigint::mod(tu::random_u256(), n)}) {
      EXPECT_EQ(big(ctx.to_mont(a)), big(a) * r % nb) << n.to_hex();
    }
  }
}

}  // namespace

// Differential property tests for the G2 scalar-multiplication strategies.
//
// The repo ships several ways to compute k*Q on G2 — plain double-and-add,
// wNAF, the 4-dim psi ladder, and two MSM engines that degenerate to single
// multiplications — and their agreement is what makes routing changes safe.
// The fixed-base comb is checked with the other groups' in endo_test.cpp.
// Every strategy here is run against the same scalars (edge cases from
// tests/test_util.h plus randomized ones) and the same points, and results
// are compared BITWISE on affine coordinates, not just by the projective
// equality predicate. The same binary runs under both Montgomery backends:
// scripts/ci.sh executes it in the forced-portable build tree too, where
// results must be identical.
//
// Also here: the psi-endomorphism invariants backing the 4-dim split
// (psi powers act as mu powers, linearity, affine-table commutation,
// prepare-after-psi; the minimal polynomial itself is pinned in
// curve_constants_test.cpp), and MSM boundary regressions (n = 0 / 1 / the
// Straus-Pippenger crossover, infinity and duplicate inputs), and the psi
// G2 membership test (ec::g2_in_subgroup) against the r-multiply oracle on
// members, on twist points outside G2 and on their cofactor components.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/endo.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "field/fields.h"
#include "pairing/pairing.h"
#include "support/biguint.h"
#include "test_util.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::U256;
using ibbe::ec::AffinePt;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::ec::G2Ops;
using ibbe::field::Fp2;
using ibbe::field::Fr;
namespace tu = ibbe::testutil;

/// Affine coordinates as a comparable value; nullopt encodes infinity.
using Affine = std::optional<std::pair<Fp2, Fp2>>;

Affine affine_of(const G2& p) { return p.to_affine(); }

/// Bitwise comparison of two strategies' results: both infinity, or equal
/// x AND y coordinates under the exact field equality (Montgomery-form
/// representations are canonical, so == is bit-equality of the limbs).
void expect_same_affine(const G2& got, const G2& want, const char* strategy,
                        const U256& k) {
  Affine g = affine_of(got), w = affine_of(want);
  ASSERT_EQ(g.has_value(), w.has_value())
      << strategy << " infinity mismatch at k=" << k.to_hex();
  if (!g) return;
  EXPECT_TRUE(g->first == w->first && g->second == w->second)
      << strategy << " affine mismatch at k=" << k.to_hex();
}

/// All-strategy differential run for one base point. The prepared MSM is
/// built once per point and reused across scalars.
void check_all_strategies(const G2& q) {
  const std::vector<G2> bases{q};
  const ibbe::ec::G2PowersMsm powers{std::span<const G2>(bases)};

  auto scalars = tu::edge_scalars();
  for (int i = 0; i < 10; ++i) scalars.push_back(tu::random_u256());

  for (const U256& k : scalars) {
    const G2 oracle = q.scalar_mul(k);  // plain double-and-add
    expect_same_affine(q.scalar_mul_wnaf(k), oracle, "wnaf", k);
    expect_same_affine(ibbe::ec::endo_pow<G2Ops>(q, k), oracle, "gls4", k);
    // The Fr-typed strategies see k mod r, which agrees on the order-r
    // subgroup.
    const Fr kf = Fr::from_u256_reduce(k);
    const std::vector<Fr> coef{kf};
    expect_same_affine(ibbe::ec::msm(std::span<const G2>(bases),
                                     std::span<const Fr>(coef)),
                       oracle, "msm-of-1", k);
    expect_same_affine(powers.msm(coef), oracle, "powers-msm-of-1", k);
    expect_same_affine(q.mul(kf), oracle, "mul-routing", k);
  }
}

TEST(StrategyEquivalence, ArbitraryPoint) { check_all_strategies(tu::random_g2()); }

TEST(StrategyEquivalence, Generator) { check_all_strategies(G2::generator()); }

TEST(StrategyEquivalence, SmallOrderMultipleOfGenerator) {
  // A point with tiny discrete log, so carries/borrows in the recodings hit
  // the doubling-only regime.
  check_all_strategies(G2::generator().dbl());
}

TEST(StrategyEquivalence, InfinityBase) {
  const G2 inf = G2::infinity();
  const U256 k = tu::random_u256();
  EXPECT_TRUE(ibbe::ec::endo_pow<G2Ops>(inf, k).is_infinity());
  EXPECT_TRUE(inf.mul(Fr::from_u256_reduce(k)).is_infinity());
}

// ------------------------------------------------------- 4-dim decomposition

TEST(Gls4Decompose, ReassemblesModRAndIsShort) {
  const BigUInt n = BigUInt::from_u256(Fr::modulus());
  const BigUInt mu = BigUInt(6) * BigUInt(tu::kBnU) * BigUInt(tu::kBnU);
  auto scalars = tu::edge_scalars();
  for (int i = 0; i < 50; ++i) scalars.push_back(tu::random_u256());
  for (const U256& k : scalars) {
    auto d = G2Ops::decompose(k);
    BigUInt acc;
    BigUInt mu_pow(1);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(d.k[i].bit_length(),
                ibbe::ec::bn_psi_lattice().max_sub_bits)
          << "sub-scalar " << i << " too long at k=" << k.to_hex();
      BigUInt term = BigUInt::from_u256(d.k[i]) * mu_pow % n;
      if (d.neg[i] && !term.is_zero()) term = n - term;
      acc = (acc + term) % n;
      mu_pow = mu_pow * mu % n;
    }
    EXPECT_EQ(acc, BigUInt::from_u256(k) % n) << "k=" << k.to_hex();
  }
}

// ----------------------------------------------------------- psi invariants

TEST(PsiInvariants, PsiPowersActAsMuPowers) {
  const BigUInt n = BigUInt::from_u256(Fr::modulus());
  const BigUInt mu = BigUInt::from_u256(ibbe::ec::bn_psi_lattice().lambda);
  G2 p = tu::random_g2();
  G2 img = p;
  BigUInt mu_pow(1);
  for (int i = 1; i <= 3; ++i) {
    img = ibbe::ec::apply_psi(img);
    mu_pow = mu_pow * mu % n;
    EXPECT_EQ(img, p.scalar_mul(mu_pow.to_u256())) << "psi^" << i;
  }
}

TEST(PsiInvariants, Linearity) {
  G2 p = tu::random_g2();
  G2 q = tu::random_g2();
  EXPECT_EQ(ibbe::ec::apply_psi(p + q),
            ibbe::ec::apply_psi(p) + ibbe::ec::apply_psi(q));
  EXPECT_EQ(ibbe::ec::apply_psi(p.neg()), ibbe::ec::apply_psi(p).neg());
  EXPECT_TRUE(ibbe::ec::apply_psi(G2::infinity()).is_infinity());
}

TEST(PsiInvariants, AffineTableEntryMatchesJacobianMap) {
  // apply_psi on an affine table entry (the form every precomputed table
  // stores) must agree with the Jacobian map plus normalization.
  for (int i = 0; i < 5; ++i) {
    G2 p = tu::random_g2();
    auto aff = p.to_affine();
    ASSERT_TRUE(aff.has_value());
    AffinePt<Fp2> entry{aff->first, aff->second, false};
    AffinePt<Fp2> mapped = ibbe::ec::apply_psi(entry);
    auto want = ibbe::ec::apply_psi(p).to_affine();
    ASSERT_TRUE(want.has_value());
    EXPECT_TRUE(mapped.x == want->first && mapped.y == want->second);
  }
  AffinePt<Fp2> inf{};
  EXPECT_TRUE(ibbe::ec::apply_psi(inf).inf);
}

TEST(PsiInvariants, PreparedAffineEntryMatchesPrepareAfterPsi) {
  // Preparing a pairing table from the psi image of an affine table entry
  // must be indistinguishable (as a pairing argument) from applying psi to
  // the point first and preparing that: psi-mapped cached tables are safe
  // to feed to the Miller loop.
  G1 p = tu::random_g1();
  G2 q = tu::random_g2();
  auto aff = q.to_affine();
  ASSERT_TRUE(aff.has_value());
  AffinePt<Fp2> entry{aff->first, aff->second, false};

  ibbe::pairing::G2Prepared via_entry(
      G2::from_affine(ibbe::ec::apply_psi(entry)));
  ibbe::pairing::G2Prepared via_point(ibbe::ec::apply_psi(q));
  EXPECT_EQ(ibbe::pairing::pairing(p, via_entry),
            ibbe::pairing::pairing(p, via_point));
  // And both equal the unprepared pairing against psi(q).
  EXPECT_EQ(ibbe::pairing::pairing(p, via_entry),
            ibbe::pairing::pairing(p, ibbe::ec::apply_psi(q)));
}

// ------------------------------------------------------- G2 membership test

/// The r-multiply oracle: Q lies in G2 iff [r]Q = O.
bool in_g2_by_r_multiply(const G2& q) {
  return q.scalar_mul(Fr::modulus()).is_infinity();
}

/// Expects g2_in_subgroup to agree with the oracle on `q`, and the checked
/// decoder to accept exactly the points both call members.
void expect_membership_agrees(const G2& q, bool want, const char* what) {
  ASSERT_EQ(in_g2_by_r_multiply(q), want) << what << ": oracle";
  EXPECT_EQ(ibbe::ec::g2_in_subgroup(q), want) << what;
  const auto bytes = ibbe::ec::g2_to_bytes(q);
  if (want) {
    EXPECT_EQ(ibbe::ec::g2_from_bytes(bytes), q) << what;
  } else {
    EXPECT_THROW((void)ibbe::ec::g2_from_bytes(bytes),
                 ibbe::util::DeserializeError)
        << what;
  }
}

TEST(G2Membership, AgreesWithTheRMultiplyOracle) {
  expect_membership_agrees(G2::infinity(), true, "infinity");
  expect_membership_agrees(G2::generator(), true, "generator");
  for (int i = 0; i < 4; ++i) {
    expect_membership_agrees(tu::random_g2(), true, "random G2");
  }

  const BigUInt r = BigUInt::from_u256(Fr::modulus());
  const BigUInt h2 = tu::twist_cofactor();
  const auto twist = tu::unchecked_twist_points(6);
  ASSERT_EQ(twist.size(), 6u);
  for (const G2& p : twist) {
    // On the twist, outside G2: the r-multiply oracle already says which.
    expect_membership_agrees(p, false, "unchecked twist point");
    // [r]P: a pure cofactor component, non-identity.
    const G2 cof = p.scalar_mul(r.to_u256());
    ASSERT_FALSE(cof.is_infinity());
    ASSERT_TRUE(cof.scalar_mul(h2.to_u256()).is_infinity());
    expect_membership_agrees(cof, false, "[r]P");
    // G2 plus a cofactor component.
    expect_membership_agrees(tu::random_g2() + cof, false, "Q + [r]P");
    expect_membership_agrees(cof.neg(), false, "-[r]P");
    // The twist's cofactor has the small prime factor 10069: a point of
    // that order is the smallest non-member there is.
    const G2 small = cof.scalar_mul((h2 / BigUInt(10069)).to_u256());
    if (!small.is_infinity()) {
      ASSERT_TRUE(small.scalar_mul(U256::from_u64(10069)).is_infinity());
      expect_membership_agrees(small, false, "order-10069 point");
      expect_membership_agrees(G2::generator() + small, false,
                               "generator + order-10069 point");
    }
  }
}

// --------------------------------------------------- MSM boundary regressions

G2 naive_msm(std::span<const G2> bases, std::span<const Fr> scalars) {
  G2 acc = G2::infinity();
  for (std::size_t i = 0; i < std::min(bases.size(), scalars.size()); ++i) {
    acc += bases[i].scalar_mul(scalars[i].to_u256());
  }
  return acc;
}

TEST(MsmBoundary, EmptyInput) {
  EXPECT_TRUE(ibbe::ec::msm(std::span<const G2>{}, std::span<const Fr>{})
                  .is_infinity());
}

TEST(MsmBoundary, SingleTerm) {
  std::vector<G2> bases{tu::random_g2()};
  std::vector<Fr> coefs{tu::random_fr()};
  EXPECT_EQ(ibbe::ec::msm(std::span<const G2>(bases),
                          std::span<const Fr>(coefs)),
            naive_msm(bases, coefs));
}

TEST(MsmBoundary, StrausPippengerCrossover) {
  // n = 32 is the last Straus-routed size, n = 33 the first Pippenger one —
  // but with the 4-dim split the engine sees up to 4n sub-terms, so both
  // sides of the internal crossover are exercised well before n = 32.
  for (std::size_t n : {8u, 32u, 33u}) {
    std::vector<G2> bases;
    std::vector<Fr> coefs;
    for (std::size_t i = 0; i < n; ++i) {
      bases.push_back(tu::random_g2());
      coefs.push_back(tu::random_fr());
    }
    EXPECT_EQ(ibbe::ec::msm(std::span<const G2>(bases),
                            std::span<const Fr>(coefs)),
              naive_msm(bases, coefs))
        << "n=" << n;
  }
}

TEST(MsmBoundary, InfinityAndZeroMixedIn) {
  std::vector<G2> bases;
  std::vector<Fr> coefs;
  for (std::size_t i = 0; i < 12; ++i) {
    bases.push_back(i % 3 == 1 ? G2::infinity() : tu::random_g2());
    coefs.push_back(i % 4 == 2 ? Fr::zero() : tu::random_fr());
  }
  EXPECT_EQ(ibbe::ec::msm(std::span<const G2>(bases),
                          std::span<const Fr>(coefs)),
            naive_msm(bases, coefs));
  // All-infinity / all-zero degenerate to the identity.
  std::vector<G2> infs(4, G2::infinity());
  std::vector<Fr> zeros(4, Fr::zero());
  EXPECT_TRUE(ibbe::ec::msm(std::span<const G2>(infs),
                            std::span<const Fr>(coefs)).is_infinity());
  EXPECT_TRUE(ibbe::ec::msm(std::span<const G2>(bases),
                            std::span<const Fr>(zeros)).is_infinity());
}

TEST(MsmBoundary, DuplicateBases) {
  // Identical bases make the Straus odd-multiple tables and Pippenger
  // buckets hit doublings instead of generic additions; both engines must
  // handle the P + P edge in their addition chains.
  const G2 q = tu::random_g2();
  for (std::size_t n : {2u, 33u}) {
    std::vector<G2> bases(n, q);
    std::vector<Fr> coefs;
    Fr sum = Fr::zero();
    for (std::size_t i = 0; i < n; ++i) {
      // Same scalar every time maximizes bucket collisions.
      coefs.push_back(Fr::from_u64(7));
      sum += Fr::from_u64(7);
    }
    EXPECT_EQ(ibbe::ec::msm(std::span<const G2>(bases),
                            std::span<const Fr>(coefs)),
              q.scalar_mul(sum.to_u256()))
        << "n=" << n;
  }
}

TEST(MsmBoundary, G2PowersMsmPrefixAndZeroHandling) {
  std::vector<G2> bases;
  for (int i = 0; i < 5; ++i) bases.push_back(tu::random_g2());
  ibbe::ec::G2PowersMsm prepared{std::span<const G2>(bases)};
  std::vector<Fr> coefs;
  for (int i = 0; i < 5; ++i) {
    coefs.push_back(i == 2 ? Fr::zero() : tu::random_fr());
  }
  EXPECT_EQ(prepared.msm(coefs), naive_msm(bases, coefs));
  // Shorter coefficient vectors use a prefix of the table; empty is identity.
  EXPECT_EQ(prepared.msm(std::span<const Fr>(coefs).first(2)),
            naive_msm(std::span<const G2>(bases).first(2),
                      std::span<const Fr>(coefs).first(2)));
  EXPECT_TRUE(prepared.msm({}).is_infinity());
}

}  // namespace

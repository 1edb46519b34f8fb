// GT exponentiation (pairing/gt_exp.h: the GtOps ladder behind Gt::exp and
// gt_pow_u) against the naive Fp12::pow / pow_cyclotomic oracles, plus the
// Karabina compression round-trips it builds on. The GtOps comb is checked
// in endo_test.cpp with the other groups'.
#include <gtest/gtest.h>

#include <vector>

#include "ec/curves.h"
#include "ec/endo.h"
#include "ec/glv.h"
#include "field/fields.h"
#include "field/fp12.h"
#include "pairing/gt_exp.h"
#include "pairing/pairing.h"
#include "support/biguint.h"
#include "support/pairing_oracle.h"
#include "test_util.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::U256;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::field::Fp12;
using ibbe::field::Fp12Compressed;
using ibbe::field::Fr;
using ibbe::pairing::GtOps;
using ibbe::testutil::kBnU;
using ibbe::testutil::random_gt;
using ibbe::testutil::random_u256;

/// Oracle: plain square-and-multiply in the full field (no cyclotomic or
/// order-r assumptions at all).
Fp12 pow_oracle(const Fp12& x, const U256& e) { return x.pow(e); }

/// The engine under test: the joint 4-dim Frobenius ladder.
Fp12 gt_pow(const Fp12& x, const U256& k) {
  return ibbe::ec::endo_pow<GtOps>(x, k);
}

// ------------------------------------------------------------- decomposition

// The split itself is G2Ops::decompose, checked as Gls4Decompose in
// strategy_equivalence_test.cpp.
TEST(GtDecompose, ReducesUnreducedScalar) {
  // r splits like 0, and 2^256 - 1 like its residue.
  for (const U256& k : GtOps::decompose(Fr::modulus()).k) {
    EXPECT_TRUE(k.is_zero());
  }
  const U256 top{{~0ull, ~0ull, ~0ull, ~0ull}};
  EXPECT_EQ(GtOps::decompose(top).k,
            GtOps::decompose(ibbe::bigint::mod(top, Fr::modulus())).k);
}

// ----------------------------------------------------------------- gt_pow

TEST(GtPow, EdgeExponents) {
  Fp12 x = random_gt();
  // 0 and r (== 0 mod r) give the identity; 1 gives x back.
  EXPECT_TRUE(gt_pow(x, U256::zero()).is_one());
  EXPECT_TRUE(gt_pow(x, Fr::modulus()).is_one());
  EXPECT_EQ(gt_pow(x, U256::one()), x);
  // r - 1 is the inverse, i.e. the conjugate for unitary elements.
  U256 r_minus_1 = (BigUInt::from_u256(Fr::modulus()) - BigUInt(1)).to_u256();
  EXPECT_EQ(gt_pow(x, r_minus_1), x.conjugate());
  EXPECT_EQ(gt_pow(x, r_minus_1), pow_oracle(x, r_minus_1));
}

TEST(GtPow, MatchesOracleOn63BitU) {
  Fp12 x = random_gt();
  EXPECT_EQ(gt_pow(x, U256::from_u64(kBnU)),
            pow_oracle(x, U256::from_u64(kBnU)));
}

TEST(GtPow, MatchesOracleOnRandom256Bit) {
  for (int trial = 0; trial < 5; ++trial) {
    Fp12 x = random_gt();
    U256 k = random_u256();  // full 256 bits; gt_pow reduces mod r
    EXPECT_EQ(gt_pow(x, k),
              pow_oracle(x, ibbe::bigint::mod(k, Fr::modulus())));
  }
}

TEST(GtPow, IdentityBaseStaysIdentity) {
  EXPECT_TRUE(gt_pow(Fp12::one(), random_u256()).is_one());
}

// ---------------------------------------------------------------- gt_pow_u

TEST(GtPowU, MatchesOracleOnOrderRElements) {
  Fp12 x = random_gt();
  EXPECT_EQ(ibbe::pairing::gt_pow_u(x), pow_oracle(x, U256::from_u64(kBnU)));
}

TEST(GtPowU, MatchesOracleOutsideOrderRSubgroup) {
  // Easy-part outputs are cyclotomic but typically NOT order r — exactly the
  // elements the final exponentiation feeds through pow_u. Build one.
  Fp12 f = random_gt() + Fp12::one();  // generic nonzero field element
  Fp12 t = f.conjugate() * f.inverse();
  Fp12 x = t.frobenius().frobenius() * t;
  ASSERT_FALSE(x.is_one());
  EXPECT_EQ(ibbe::pairing::gt_pow_u(x), pow_oracle(x, U256::from_u64(kBnU)));
}

// ----------------------------------------------------- Karabina compression

TEST(Karabina, RoundTrip) {
  for (int trial = 0; trial < 5; ++trial) {
    Fp12 x = random_gt();
    EXPECT_EQ(x.compress().decompress(), x);
  }
}

TEST(Karabina, RoundTripOutsideOrderRSubgroup) {
  // gt_pow_u compresses easy-part outputs, which are cyclotomic but not of
  // order r; the round trip and the compressed squaring must hold there too.
  Fp12 f = random_gt() + Fp12::one();
  Fp12 t = f.conjugate() * f.inverse();
  Fp12 x = t.frobenius().frobenius() * t;
  ASSERT_FALSE(x.is_one());
  EXPECT_EQ(x.compress().decompress(), x);
  EXPECT_EQ(x.compress().square().decompress(), x.cyclotomic_square());
}

TEST(Karabina, CompressedSquareMatchesCyclotomicSquare) {
  Fp12 x = random_gt();
  Fp12Compressed c = x.compress();
  Fp12 full = x;
  for (int step = 0; step < 8; ++step) {
    c = c.square();
    full = full.cyclotomic_square();
    EXPECT_EQ(c.decompress(), full) << "diverged at squaring " << step;
  }
}

TEST(Karabina, IdentityRoundTrips) {
  EXPECT_TRUE(Fp12::one().compress().decompress().is_one());
  EXPECT_TRUE(Fp12::one().compress().square().decompress().is_one());
}

TEST(Karabina, BatchDecompressMatchesSingle) {
  std::vector<Fp12Compressed> compressed;
  std::vector<Fp12> expected;
  Fp12Compressed run = random_gt().compress();
  for (int i = 0; i < 10; ++i) {
    run = run.square();
    compressed.push_back(run);
    expected.push_back(run.decompress());
  }
  auto batch = Fp12Compressed::decompress_many(compressed);
  ASSERT_EQ(batch.size(), expected.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], expected[i]) << "element " << i;
  }
  EXPECT_TRUE(Fp12Compressed::decompress_many({}).empty());
}

// ------------------------------------------------------- engine integration

TEST(GtEngine, GtExpRoutesThroughEngine) {
  // Gt::exp and the oracle must agree on a real pairing output.
  auto e = ibbe::pairing::pairing(G1::generator(), G2::generator());
  Fr k = Fr::from_u256_reduce(random_u256());
  EXPECT_EQ(e.exp(k).value(), pow_oracle(e.value(), k.to_u256()));
}

TEST(GtEngine, FinalExponentiationStillMatchesNaive) {
  // pow_u now runs NAF-of-u over compressed squarings; the whole hard part
  // must still agree with the naive big-integer oracle.
  Fp12 f = ibbe::pairing::miller_loop(G1::generator(), G2::generator());
  EXPECT_EQ(ibbe::pairing::final_exponentiation(f),
            ibbe::pairing::final_exponentiation_naive(f));
}

TEST(GtEngine, FinalExponentiationManyMatchesSingle) {
  std::vector<Fp12> fs;
  for (int i = 1; i <= 4; ++i) {
    fs.push_back(ibbe::pairing::miller_loop(
        G1::generator().mul(Fr::from_u64(static_cast<std::uint64_t>(i))),
        G2::generator()));
  }
  auto batch = ibbe::pairing::final_exponentiation_many(fs);
  ASSERT_EQ(batch.size(), fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(batch[i], ibbe::pairing::final_exponentiation(fs[i]));
  }
  EXPECT_TRUE(ibbe::pairing::final_exponentiation_many({}).empty());
}

}  // namespace

#include <gtest/gtest.h>

#include <random>

#include "field/fields.h"
#include "field/fp12.h"
#include "field/fp2.h"
#include "field/fp6.h"
#include "support/biguint.h"
#include "support/pairing_oracle.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::U256;
using ibbe::field::Fp;
using ibbe::field::Fp12;
using ibbe::field::Fp2;
using ibbe::field::Fp6;
using ibbe::field::Fr;
using ibbe::field::P256Fp;
using ibbe::field::P256Fr;
using ibbe::testutil::pow_big;

std::mt19937_64& rng() {
  static std::mt19937_64 gen(42);
  return gen;
}

Fp random_fp() {
  U256 v;
  for (auto& limb : v.limb) limb = rng()();
  return Fp::from_u256_reduce(v);
}

Fr random_fr() {
  U256 v;
  for (auto& limb : v.limb) limb = rng()();
  return Fr::from_u256_reduce(v);
}

Fp2 random_fp2() { return {random_fp(), random_fp()}; }
Fp6 random_fp6() { return {random_fp2(), random_fp2(), random_fp2()}; }
Fp12 random_fp12() { return {random_fp6(), random_fp6()}; }

BigUInt fp_modulus_big() { return BigUInt::from_u256(Fp::modulus()); }

// -------------------------------------------------------------------- Fp

TEST(Fp, AdditiveGroupLaws) {
  for (int i = 0; i < 20; ++i) {
    Fp a = random_fp(), b = random_fp(), c = random_fp();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + Fp::zero(), a);
    EXPECT_EQ(a + a.neg(), Fp::zero());
    EXPECT_EQ(a - b, a + b.neg());
  }
}

TEST(Fp, MultiplicativeLaws) {
  for (int i = 0; i < 20; ++i) {
    Fp a = random_fp(), b = random_fp(), c = random_fp();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp::one(), a);
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(a.dbl(), a + a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp::one());
    }
  }
}

TEST(Fp, FromU256RejectsUnreduced) {
  EXPECT_THROW(Fp::from_u256(Fp::modulus()), std::invalid_argument);
  EXPECT_NO_THROW(Fp::from_u256_reduce(Fp::modulus()));
  EXPECT_TRUE(Fp::from_u256_reduce(Fp::modulus()).is_zero());
}

TEST(Fp, RoundTrips) {
  for (int i = 0; i < 20; ++i) {
    Fp a = random_fp();
    EXPECT_EQ(Fp::from_u256(a.to_u256()), a);
    EXPECT_EQ(Fp::from_hex(a.to_hex()), a);
    EXPECT_EQ(Fp::from_be_bytes_reduce(a.to_be_bytes()), a);
  }
}

TEST(Fp, SqrtRejectsNonResidue) {
  // Exactly one of x, -x is a QR when x != 0 (p = 3 mod 4 => -1 is a non-residue).
  int rejected = 0;
  for (int i = 0; i < 20; ++i) {
    Fp a = random_fp();
    if (a.is_zero()) continue;
    bool qr_a = a.sqrt().has_value();
    bool qr_neg = a.neg().sqrt().has_value();
    EXPECT_NE(qr_a, qr_neg);
    rejected += qr_a ? 0 : 1;
  }
  EXPECT_GT(rejected, 0);  // statistically certain over 20 draws
}

// a^((p+1)/4) is a square root only when p = 3 (mod 4): the two base
// fields. The scalar fields are 1 (mod 4), and their sqrt must not compile.
static_assert(Fp::modulus_is_3_mod_4() && P256Fp::modulus_is_3_mod_4());
static_assert(!Fr::modulus_is_3_mod_4() && !P256Fr::modulus_is_3_mod_4());
template <typename F>
constexpr bool kHasSqrt = requires(const F& a) { a.sqrt(); };
static_assert(kHasSqrt<Fp> && kHasSqrt<P256Fp>);
static_assert(!kHasSqrt<Fr> && !kHasSqrt<P256Fr>);

template <typename F>
void expect_squares_round_trip() {
  for (int i = 0; i < 20; ++i) {
    U256 v;
    for (auto& limb : v.limb) limb = rng()();
    const F a = F::from_u256_reduce(v);
    auto root = a.square().sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == a.neg());
    EXPECT_EQ(root->square(), a.square());
  }
  auto zero = F::zero().sqrt();
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(zero->is_zero());
}

TEST(SqrtThreeModFour, SquaresRoundTripInBothBaseFields) {
  expect_squares_round_trip<Fp>();
  expect_squares_round_trip<P256Fp>();
}

TEST(Fp, PowMatchesFermat) {
  Fp a = random_fp();
  BigUInt p = fp_modulus_big();
  EXPECT_EQ(a.pow((p - BigUInt(1)).to_u256()), Fp::one());
  EXPECT_EQ(a.pow(p.to_u256()), a);  // Frobenius is identity on the prime field
}

TEST(Fr, DistinctModulusFromFp) {
  EXPECT_NE(ibbe::bigint::cmp(Fr::modulus(), Fp::modulus()), 0);
  // r < p for BN curves.
  EXPECT_LT(Fr::modulus(), Fp::modulus());
}

TEST(Fr, BasicFieldSanity) {
  Fr a = random_fr();
  if (!a.is_zero()) {
    EXPECT_EQ(a * a.inverse(), Fr::one());
  }
  EXPECT_EQ(a + a.neg(), Fr::zero());
}

// -------------------------------------------------------------------- Fp2

TEST(Fp2, RingLaws) {
  for (int i = 0; i < 20; ++i) {
    Fp2 a = random_fp2(), b = random_fp2(), c = random_fp2();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.square(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp2::one());
    }
  }
}

TEST(Fp2, ISquaredIsMinusOne) {
  Fp2 i(Fp::zero(), Fp::one());
  EXPECT_EQ(i * i, Fp2(Fp::one().neg(), Fp::zero()));
}

TEST(Fp2, MulByXiMatchesGenericMul) {
  for (int i = 0; i < 20; ++i) {
    Fp2 a = random_fp2();
    EXPECT_EQ(a.mul_by_xi(), a * Fp2::xi());
  }
}

TEST(Fp2, ConjugateIsFrobenius) {
  // x^p = conj(x) in Fp2.
  BigUInt p = fp_modulus_big();
  for (int i = 0; i < 5; ++i) {
    Fp2 a = random_fp2();
    EXPECT_EQ(a.pow(p.to_u256()), a.conjugate());
  }
}

TEST(Fp2, SqrtOfSquares) {
  for (int i = 0; i < 10; ++i) {
    Fp2 a = random_fp2();
    auto root = a.square().sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == a.neg());
  }
}

TEST(Fp2, SqrtRejectsNonResidues) {
  // xi = 9 + i is a sextic (hence quadratic) non-residue by construction.
  EXPECT_FALSE(Fp2::xi().sqrt().has_value());
}

TEST(Fp2, XiIsCubicNonResidue) {
  // Required for Fp6 = Fp2[v]/(v^3 - xi) to be a field: xi^((q-1)/3) != 1
  // where q = p^2.
  BigUInt p = fp_modulus_big();
  BigUInt e = (p * p - BigUInt(1)) / BigUInt(3);
  EXPECT_NE(pow_big(Fp2::xi(), e), Fp2::one());
}

// -------------------------------------------------------------------- Fp6

TEST(Fp6, RingLaws) {
  for (int i = 0; i < 10; ++i) {
    Fp6 a = random_fp6(), b = random_fp6(), c = random_fp6();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp6::one());
    }
  }
}

TEST(Fp6, VCubedIsXi) {
  Fp6 v(Fp2::zero(), Fp2::one(), Fp2::zero());
  Fp6 xi(Fp2::xi(), Fp2::zero(), Fp2::zero());
  EXPECT_EQ(v * v * v, xi);
}

TEST(Fp6, MulByVMatchesGenericMul) {
  Fp6 v(Fp2::zero(), Fp2::one(), Fp2::zero());
  for (int i = 0; i < 10; ++i) {
    Fp6 a = random_fp6();
    EXPECT_EQ(a.mul_by_v(), a * v);
  }
}

TEST(Fp6, FrobeniusMatchesPow) {
  BigUInt p = fp_modulus_big();
  for (int i = 0; i < 3; ++i) {
    Fp6 a = random_fp6();
    Fp6 expected = Fp6::one();
    // a^p by square-and-multiply over Fp6.
    for (unsigned bit = p.bit_length(); bit-- > 0;) {
      expected = expected * expected;
      if (p.bit(bit)) expected = expected * a;
    }
    EXPECT_EQ(a.frobenius(), expected);
  }
}

// -------------------------------------------------------------------- Fp12

TEST(Fp12, RingLaws) {
  for (int i = 0; i < 5; ++i) {
    Fp12 a = random_fp12(), b = random_fp12(), c = random_fp12();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a.square(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp12::one());
    }
  }
}

TEST(Fp12, WSquaredIsV) {
  Fp12 w(Fp6::zero(), Fp6::one());
  Fp6 v(Fp2::zero(), Fp2::one(), Fp2::zero());
  EXPECT_EQ(w * w, Fp12(v, Fp6::zero()));
}

TEST(Fp12, FrobeniusMatchesPow) {
  BigUInt p = fp_modulus_big();
  Fp12 a = random_fp12();
  EXPECT_EQ(a.frobenius(), a.pow(p.to_u256()));
}

TEST(Fp12, FrobeniusTwelfthPowerIsIdentity) {
  Fp12 a = random_fp12();
  Fp12 cur = a;
  for (int i = 0; i < 12; ++i) cur = cur.frobenius();
  EXPECT_EQ(cur, a);
}

TEST(Fp12, ConjugateIsPSixthFrobenius) {
  Fp12 a = random_fp12();
  Fp12 cur = a;
  for (int i = 0; i < 6; ++i) cur = cur.frobenius();
  EXPECT_EQ(cur, a.conjugate());
}

TEST(Fp12, MulByLineMatchesGenericMul) {
  for (int i = 0; i < 10; ++i) {
    Fp12 f = random_fp12();
    Fp2 a = random_fp2(), b = random_fp2(), c = random_fp2();
    Fp12 line(Fp6(a, Fp2::zero(), Fp2::zero()), Fp6(b, c, Fp2::zero()));
    EXPECT_EQ(f.mul_by_line(a, b, c), f * line);
  }
}

TEST(Fp12, CyclotomicSquareAgreesOnCyclotomicSubgroup) {
  // Map a random element into the cyclotomic subgroup with x^((p^6-1)(p^2+1))
  // and compare squarings.
  BigUInt p = fp_modulus_big();
  BigUInt p2 = p * p;
  BigUInt p6 = p2 * p2 * p2;
  for (int i = 0; i < 3; ++i) {
    Fp12 x = random_fp12();
    Fp12 y = pow_big(x, p6 - BigUInt(1));
    y = pow_big(y, p2 + BigUInt(1));
    EXPECT_EQ(y.cyclotomic_square(), y.square());
    EXPECT_EQ(y * y.conjugate(), Fp12::one());  // unitary
  }
}

TEST(Fp12, PowCyclotomicMatchesPow) {
  BigUInt p = fp_modulus_big();
  BigUInt p2 = p * p;
  BigUInt p6 = p2 * p2 * p2;
  Fp12 x = random_fp12();
  Fp12 y = pow_big(pow_big(x, p6 - BigUInt(1)), p2 + BigUInt(1));
  U256 e;
  for (auto& limb : e.limb) limb = rng()();
  EXPECT_EQ(y.pow_cyclotomic(e), y.pow(e));
}

TEST(Fp12, SerializationRoundTrip) {
  for (int i = 0; i < 5; ++i) {
    Fp12 a = random_fp12();
    auto bytes = a.to_bytes();
    ASSERT_EQ(bytes.size(), Fp12::serialized_size);
    EXPECT_EQ(Fp12::from_bytes(bytes), a);
  }
  EXPECT_THROW(Fp12::from_bytes(std::vector<std::uint8_t>(10)),
               ibbe::util::DeserializeError);
}

// ----------------------------------------- lazy-reduction cross-validation
//
// Fp2/Fp6 multiplication accumulates unreduced 512-bit products and reduces
// once per coefficient (field/lazy.h). These tests pin the lazy formulas to
// independent reference implementations built ONLY from reduced Fp
// arithmetic, over both random and adversarial (near-p, saturated-limb)
// operands — the inputs that maximize the wide accumulator.

Fp2 ref_fp2_mul(const Fp2& a, const Fp2& b) {
  // (a0 + a1 i)(b0 + b1 i) with i^2 = -1, schoolbook over reduced Fp ops.
  return {a.c0() * b.c0() - a.c1() * b.c1(),
          a.c0() * b.c1() + a.c1() * b.c0()};
}

Fp6 ref_fp6_mul(const Fp6& a, const Fp6& b) {
  // Schoolbook with v^3 = xi folds, all products through ref_fp2_mul.
  Fp2 c0 = ref_fp2_mul(a.c0(), b.c0()) +
           (ref_fp2_mul(a.c1(), b.c2()) + ref_fp2_mul(a.c2(), b.c1()))
               .mul_by_xi();
  Fp2 c1 = ref_fp2_mul(a.c0(), b.c1()) + ref_fp2_mul(a.c1(), b.c0()) +
           ref_fp2_mul(a.c2(), b.c2()).mul_by_xi();
  Fp2 c2 = ref_fp2_mul(a.c0(), b.c2()) + ref_fp2_mul(a.c1(), b.c1()) +
           ref_fp2_mul(a.c2(), b.c0());
  return {c0, c1, c2};
}

/// Field elements that stress every carry/bound in the lazy path: 0, 1, p-1,
/// p-2, and reduced saturated-limb patterns.
std::vector<Fp> adversarial_fps() {
  std::vector<Fp> out = {Fp::zero(), Fp::one(), Fp::zero() - Fp::one(),
                         Fp::zero() - Fp::one() - Fp::one()};
  U256 sat;
  for (auto& limb : sat.limb) limb = ~std::uint64_t{0};
  out.push_back(Fp::from_u256_reduce(sat));
  sat.limb = {0, 0, 0, ~std::uint64_t{0}};
  out.push_back(Fp::from_u256_reduce(sat));
  return out;
}

TEST(FieldLazy, Fp2MulMatchesReferenceOnWorstCaseOperands) {
  auto fps = adversarial_fps();
  for (const Fp& w : fps) {
    for (const Fp& x : fps) {
      for (const Fp& y : fps) {
        for (const Fp& z : fps) {
          Fp2 a(w, x), b(y, z);
          EXPECT_EQ(a * b, ref_fp2_mul(a, b));
          EXPECT_EQ(a.square(), ref_fp2_mul(a, a));
        }
      }
    }
  }
  for (int i = 0; i < 500; ++i) {
    Fp2 a = random_fp2(), b = random_fp2();
    EXPECT_EQ(a * b, ref_fp2_mul(a, b));
    EXPECT_EQ(a.square(), ref_fp2_mul(a, a));
  }
}

TEST(FieldLazy, Fp6MulMatchesReferenceOnWorstCaseOperands) {
  // All-(p-1) components maximize every one of the 12 accumulated products
  // per coefficient — the deepest lazy accumulation in the tower.
  Fp pm1 = Fp::zero() - Fp::one();
  Fp2 ext(pm1, pm1);
  Fp6 worst(ext, ext, ext);
  EXPECT_EQ(worst * worst, ref_fp6_mul(worst, worst));

  auto fps = adversarial_fps();
  for (std::size_t i = 0; i < fps.size(); ++i) {
    Fp6 a(Fp2(fps[i], fps[(i + 1) % fps.size()]),
          Fp2(fps[(i + 2) % fps.size()], fps[(i + 3) % fps.size()]),
          Fp2(fps[(i + 4) % fps.size()], fps[(i + 5) % fps.size()]));
    EXPECT_EQ(a * worst, ref_fp6_mul(a, worst));
    EXPECT_EQ(worst * a, ref_fp6_mul(worst, a));
  }
  for (int i = 0; i < 200; ++i) {
    Fp6 a = random_fp6(), b = random_fp6();
    EXPECT_EQ(a * b, ref_fp6_mul(a, b));
  }
}

TEST(FieldLazy, Fp6MulBy01MatchesDenseMul) {
  Fp pm1 = Fp::zero() - Fp::one();
  Fp2 ext(pm1, pm1);
  for (int i = 0; i < 100; ++i) {
    Fp6 a = i == 0 ? Fp6(ext, ext, ext) : random_fp6();
    Fp2 b0 = i == 0 ? ext : random_fp2();
    Fp2 b1 = i == 0 ? ext : random_fp2();
    EXPECT_EQ(a.mul_by_01(b0, b1), a * Fp6(b0, b1, Fp2::zero()));
  }
}

TEST(FieldLazy, Fp2InverseOnWorstCaseOperands) {
  for (const Fp& x : adversarial_fps()) {
    for (const Fp& y : adversarial_fps()) {
      Fp2 a(x, y);
      if (a.is_zero()) continue;
      EXPECT_EQ(a * a.inverse(), Fp2::one());
    }
  }
}

}  // namespace

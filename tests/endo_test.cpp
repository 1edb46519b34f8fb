// The comb and the ladder of ec/endo.h, once per group (G1, G2, GT and
// P-256), against each other and against the endomorphism-free oracles:
// double-and-add (scalar_mul) on the curves, square-and-multiply in the full
// field (Fp12::pow) on GT.
//
// Every group runs the same cases: three bases (a random element, the
// generator, and twice the generator, whose small discrete log drives the
// recodings into their carry and borrow regimes), the shared edge scalars
// plus the group order's neighbours, 64 random scalars, scalars with chosen
// 4-dim sub-scalars (every 8-bit digit at 255 or at the 128 sign boundary,
// under all 16 sign patterns), and a scalar whose signed recoding carries
// into the comb's top row, which exists only for that carry. The identity
// base and the table-size bounds get their own cases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/endo.h"
#include "ec/glv.h"
#include "field/fields.h"
#include "field/fp12.h"
#include "pairing/gt_exp.h"
#include "pairing/pairing.h"
#include "support/biguint.h"
#include "test_util.h"

namespace {

using ibbe::bigint::BigUInt;
using ibbe::bigint::U256;
using ibbe::ec::G1;
using ibbe::ec::G1Ops;
using ibbe::ec::G2;
using ibbe::ec::G2Ops;
using ibbe::ec::P256Ops;
using ibbe::ec::P256Point;
using ibbe::field::Fp12;
using ibbe::field::Fr;
using ibbe::pairing::GtOps;
namespace tu = ibbe::testutil;

/// What the suite needs of each group beyond its Ops: sample bases, the
/// oracle, the group order and the table-size bound.
template <typename Ops>
struct Group;

template <>
struct Group<G1Ops> {
  static constexpr const char* kName = "G1";
  static constexpr std::size_t kMaxTableBytes = 69120;
  static G1 random() { return tu::random_g1(); }
  static G1 generator() { return G1::generator(); }
  static G1 oracle(const G1& x, const U256& k) { return x.scalar_mul(k); }
  static U256 order() { return Fr::modulus(); }
};

template <>
struct Group<G2Ops> {
  static constexpr const char* kName = "G2";
  static constexpr std::size_t kMaxTableBytes = 626688;
  static G2 random() { return tu::random_g2(); }
  static G2 generator() { return G2::generator(); }
  static G2 oracle(const G2& x, const U256& k) { return x.scalar_mul(k); }
  static U256 order() { return Fr::modulus(); }
};

template <>
struct Group<GtOps> {
  static constexpr const char* kName = "GT";
  static constexpr std::size_t kMaxTableBytes = 432 * 1024;
  static Fp12 random() { return tu::random_gt(); }
  static Fp12 generator() {
    return ibbe::pairing::pairing(G1::generator(), G2::generator()).value();
  }
  static Fp12 oracle(const Fp12& x, const U256& k) { return x.pow(k); }
  static U256 order() { return Fr::modulus(); }
};

template <>
struct Group<P256Ops> {
  static constexpr const char* kName = "P256";
  static constexpr std::size_t kMaxTableBytes = 69120;
  static P256Point random() {
    return P256Point::generator().scalar_mul(tu::random_u256());
  }
  static P256Point generator() { return P256Point::generator(); }
  static P256Point oracle(const P256Point& x, const U256& k) {
    return x.scalar_mul(k);
  }
  static U256 order() { return ibbe::field::P256Fr::modulus(); }
};

/// k = sum_i (-1)^neg_i sub lambda^i (mod r) on the psi/Frobenius lattice,
/// so that its 4-dim decomposition is exactly (sub, ..., sub) with those
/// signs.
U256 recombine4(const BigUInt& sub, unsigned neg_mask) {
  const BigUInt r = BigUInt::from_u256(Fr::modulus());
  const BigUInt lambda = BigUInt::from_u256(ibbe::ec::bn_psi_lattice().lambda);
  BigUInt acc, lambda_pow(1);
  for (unsigned i = 0; i < 4; ++i) {
    BigUInt term = sub * lambda_pow % r;
    if ((neg_mask >> i) & 1) term = (r - term) % r;
    acc = (acc + term) % r;
    lambda_pow = lambda_pow * lambda % r;
  }
  return acc.to_u256();
}

/// True if the comb's signed recoding of `sub` carries out of the
/// second-highest row into the top one.
template <typename Ops>
bool carries_into_top_row(const U256& sub) {
  using Comb = ibbe::ec::Comb<Ops>;
  unsigned carry = 0;
  for (unsigned j = 0; j + 1 < Comb::kRows; ++j) {
    const unsigned v =
        ibbe::ec::window_value(sub, j * Comb::kWindow, Comb::kWindow) + carry;
    carry = v > Comb::kHalf ? 1 : 0;
  }
  return carry == 1;
}

/// The first random scalar one of whose sub-scalars carries into the top row.
template <typename Ops>
U256 top_row_carry_scalar() {
  for (int tries = 0; tries < 1000; ++tries) {
    const U256 k = tu::random_u256();
    const auto d = Ops::decompose(k);
    for (const U256& sub : d.k) {
      if (carries_into_top_row<Ops>(sub)) return k;
    }
  }
  ADD_FAILURE() << "no scalar carries into the top comb row";
  return U256::zero();
}

template <typename Ops>
std::vector<U256> scalars() {
  const BigUInt n = BigUInt::from_u256(Group<Ops>::order());
  auto ks = tu::edge_scalars();
  for (const BigUInt& e : {n - BigUInt(1), n, n + BigUInt(1)}) {
    ks.push_back(e.to_u256());
  }
  const BigUInt two64 = BigUInt(1) << 64;
  ks.push_back((two64 - BigUInt(1)).to_u256());
  ks.push_back((two64 + BigUInt(1)).to_u256());
  for (int i = 0; i < 64; ++i) ks.push_back(tu::random_u256());
  for (const BigUInt& sub : {(BigUInt(1) << 56) - BigUInt(1),
                             BigUInt(0x80808080808080ull)}) {
    for (unsigned mask = 0; mask < 16; ++mask) {
      ks.push_back(recombine4(sub, mask));
    }
  }
  ks.push_back(top_row_carry_scalar<Ops>());
  return ks;
}

template <typename Ops>
class EndoEquivalence : public ::testing::Test {};

using Groups = ::testing::Types<G1Ops, G2Ops, GtOps, P256Ops>;

struct GroupName {
  template <typename Ops>
  static std::string GetName(int /*index*/) {
    return Group<Ops>::kName;
  }
};

TYPED_TEST_SUITE(EndoEquivalence, Groups, GroupName);

TYPED_TEST(EndoEquivalence, CombLadderAndOracleAgree) {
  using Ops = TypeParam;
  using G = Group<Ops>;
  const auto ks = scalars<Ops>();
  for (const auto& x : {G::random(), G::generator(), Ops::dbl(G::generator())}) {
    const ibbe::ec::Comb<Ops> comb(x);
    for (const U256& k : ks) {
      const auto want = G::oracle(x, k);
      EXPECT_TRUE(comb.pow(k) == want) << "comb, k=" << k.to_hex();
      EXPECT_TRUE(ibbe::ec::endo_pow<Ops>(x, k) == want)
          << "ladder, k=" << k.to_hex();
    }
  }
}

TYPED_TEST(EndoEquivalence, IdentityBase) {
  using Ops = TypeParam;
  const auto one = Ops::one();
  const ibbe::ec::Comb<Ops> comb(one);
  auto ks = tu::edge_scalars();
  for (int i = 0; i < 4; ++i) ks.push_back(tu::random_u256());
  for (const U256& k : ks) {
    EXPECT_TRUE(comb.pow(k) == one) << "comb, k=" << k.to_hex();
    EXPECT_TRUE(ibbe::ec::endo_pow<Ops>(one, k) == one)
        << "ladder, k=" << k.to_hex();
  }
}

TYPED_TEST(EndoEquivalence, TableStaysWithinItsBound) {
  using Ops = TypeParam;
  const ibbe::ec::Comb<Ops> comb(Group<Ops>::generator());
  EXPECT_LE(comb.table_bytes(), Group<Ops>::kMaxTableBytes);
  EXPECT_EQ(comb.table_bytes(), ibbe::ec::Comb<Ops>::kRows *
                                    ibbe::ec::Comb<Ops>::kHalf *
                                    sizeof(typename Ops::Entry));
}

TEST(EndoDecompose, ChosenSubScalarsComeBackUnchanged) {
  // The recombined scalars of scalars() are only worth their cost if the
  // 4-dim split (G2Ops, which GtOps shares) hands them back unchanged.
  for (const BigUInt& sub : {(BigUInt(1) << 56) - BigUInt(1),
                             BigUInt(0x80808080808080ull)}) {
    for (unsigned mask = 0; mask < 16; ++mask) {
      const auto d = G2Ops::decompose(recombine4(sub, mask));
      for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(BigUInt::from_u256(d.k[i]), sub) << "mask " << mask;
        EXPECT_EQ(d.neg[i], ((mask >> i) & 1) != 0) << "mask " << mask;
      }
    }
  }
}

}  // namespace

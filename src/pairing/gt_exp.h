// Cyclotomic exponentiation for the pairing target group.
//
// Two exponentiations, both built on the structure the final exponentiation
// leaves behind:
//
//  * `GtOps` — ORDER-r elements (true GT members) through the comb and the
//    ladder of ec/endo.h. The p-power Frobenius pi acts on the order-r
//    subgroup as exponentiation by lambda = p mod r = 6u^2, and lambda
//    satisfies the cyclotomic quartic lambda^4 - lambda^2 + 1 = 0 (mod r),
//    so a 254-bit exponent splits into four ~65-bit sub-scalars over the
//    bases {x, pi(x), pi^2(x), pi^3(x)} (Babai round-off against
//    ec::bn_psi_lattice() — the lattice of the 4-dim G2 split, since psi
//    shares the eigenvalue). ec::endo_pow<GtOps> (Gt::exp) is one joint
//    width-4 wNAF ladder of ~66 cyclotomic squarings instead of ~254;
//    ec::Comb<GtOps> (the IBBE key's v = e(g, h)) is ~35 multiplications and
//    no squarings. Conjugation is the free inversion for negative digits.
//
//  * `gt_pow_u` — exponentiation by the fixed BN parameter u for ANY element
//    of the cyclotomic subgroup GPhi12(p) (easy-part outputs included, where
//    the 4-dim split is NOT valid because the element order exceeds r).
//    Walks the signed NAF of u over Karabina compressed squarings,
//    snapshotting the compressed ladder at nonzero digits and recovering all
//    snapshots with one batched decompression (field/fp12.h).
//
// The constants are literals or compile-time expressions: the lattice and its
// rounding reciprocals are ec::bn_psi_lattice() (pinned by
// tests/curve_constants_test.cpp, which also checks that Frobenius acts as
// [6u^2] on GT), and the NAF of u is computed by the compiler. Both are
// checked against the naive Fp12::pow and pow_cyclotomic oracles in
// tests/gt_exp_test.cpp and tests/endo_test.cpp.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bigint/lattice4.h"
#include "bigint/u256.h"
#include "ec/glv.h"
#include "field/fp12.h"

namespace ibbe::pairing {

/// GT as an ec/endo.h group, written multiplicatively: the product, the
/// cyclotomic squaring, conjugation as the inverse and the Frobenius as the
/// endomorphism. Elements must lie in the order-r subgroup (outputs of a
/// final exponentiation and products thereof); for other cyclotomic
/// elements use Fp12::pow_cyclotomic. Exponents are reduced mod r. The comb
/// keeps 9 rows of 128 Fp12 entries (432 KiB) and builds them with 64
/// cyclotomic squarings and 127 multiplications per row.
struct GtOps {
  using Elem = field::Fp12;
  using Entry = field::Fp12;
  using LadderEntry = field::Fp12;
  static constexpr std::size_t kDim = 4;
  static constexpr unsigned kSpan = ec::G2Ops::kSpan;
  static constexpr unsigned kCombWindow = 8;
  static constexpr unsigned kLadderWindow = 4;

  static Elem one() { return Elem::one(); }
  static Elem dbl(const Elem& a) { return a.cyclotomic_square(); }
  static Elem add(const Elem& a, const Elem& b) { return a * b; }
  static Elem neg(const Elem& a) { return a.conjugate(); }
  static Elem lift(const Elem& a) { return a; }
  static Elem endo(const Elem& a) { return a.frobenius(); }
  static std::vector<Elem> normalize(std::vector<Elem>&& v) {
    return std::move(v);
  }
  static bigint::Decomp4 decompose(const bigint::U256& k) {
    return ec::G2Ops::decompose(k);
  }
};

/// x^u (u = the BN254 curve parameter, 63 bits) for x anywhere in the
/// cyclotomic subgroup GPhi12(p). The final exponentiation's hard part runs
/// its three u-ladders through this.
field::Fp12 gt_pow_u(const field::Fp12& x);

}  // namespace ibbe::pairing

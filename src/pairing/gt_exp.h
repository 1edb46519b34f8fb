// Cyclotomic exponentiation engine for the pairing target group.
//
// Two exponentiation strategies, both built on the structure the final
// exponentiation leaves behind:
//
//  * `gt_pow` — GLS-style 4-dimensional decomposition for ORDER-r elements
//    (true GT members). The p-power Frobenius pi acts on the order-r
//    subgroup as exponentiation by lambda = p mod r = 6u^2, and lambda
//    satisfies the cyclotomic quartic lambda^4 - lambda^2 + 1 = 0 (mod r),
//    so a 254-bit exponent splits into four ~65-bit sub-scalars over the
//    bases {x, pi(x), pi^2(x), pi^3(x)} (Babai round-off through
//    bigint/lattice4.h against ec::bn_psi_lattice() — the exact lattice the
//    4-dim G2 GLS split uses, since psi shares the eigenvalue). One joint
//    width-4 wNAF
//    ladder then costs ~66 cyclotomic squarings instead of ~254, with
//    conjugation as the free inversion for negative digits.
//
//  * `GtComb4` — fixed-base exponentiation for ONE long-lived order-r base
//    (the IBBE public key's v = e(g, h)), the GT analogue of ec::G2Comb4:
//    the same 4-dim split, but each sub-scalar is looked up in a signed-digit
//    windowed table of base^(d 2^(w i)) instead of walking a squaring
//    ladder. A power is ~35 multiplications and no squarings; the four
//    partial products are joined with three Frobenius maps.
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
// [6u^2] on GT), and the NAF of u is computed by the compiler. The engines
// themselves are checked against the naive Fp12::pow and pow_cyclotomic
// oracles in tests/gt_exp_test.cpp and tests/strategy_equivalence_test.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "bigint/lattice4.h"
#include "bigint/u256.h"
#include "field/fp12.h"

namespace ibbe::pairing {

/// x^k for x in the order-r subgroup of Fp12 (outputs of a final
/// exponentiation and products thereof). k is reduced mod r. For elements of
/// the cyclotomic subgroup that are NOT order r, use Fp12::pow_cyclotomic.
field::Fp12 gt_pow(const field::Fp12& x, const bigint::U256& k);

/// Fixed-base comb for one order-r element x. k is split with decompose_gt
/// into four sub-scalars (at most ~65 bits), each recoded into nine signed
/// 8-bit digits d in [-127, 128]; one table row per digit position holds
/// x^(|d| 2^(8 i)) for |d| = 1..128, and a negative digit uses the
/// conjugate (the free inverse). The four partial products a_j give
/// x^k = a_0 pi(a_1) pi^2(a_2) pi^3(a_3), evaluated Horner-style with three
/// Frobenius maps.
///
/// Table: 9 x 128 = 1152 Fp12 entries (432 KiB). Build: 64 cyclotomic
/// squarings for the row bases, then 127 multiplications per row, one row
/// per task on the global thread pool (the rows are independent, so the
/// table is the same at any thread count). pow() agrees with gt_pow
/// bit-for-bit.
class GtComb4 {
 public:
  explicit GtComb4(const field::Fp12& base);

  /// base^k; k is reduced mod r.
  [[nodiscard]] field::Fp12 pow(const bigint::U256& k) const;

  /// Heap bytes held by the table.
  [[nodiscard]] std::size_t table_bytes() const {
    return tbl_.size() * sizeof(field::Fp12);
  }

 private:
  // tbl_[win * 128 + (|d| - 1)] = base^(|d| 2^(8 win)).
  std::vector<field::Fp12> tbl_;
};

/// x^u (u = the BN254 curve parameter, 63 bits) for x anywhere in the
/// cyclotomic subgroup GPhi12(p). The final exponentiation's hard part runs
/// its three u-ladders through this.
field::Fp12 gt_pow_u(const field::Fp12& x);

/// Four-dimensional decomposition k = sum_i (-1)^neg[i] k[i] lambda^i
/// (mod r) with k[i] < ~2^66 and lambda = p mod r = 6u^2, against the
/// psi/Frobenius lattice shared with the G2 engine (ec::bn_psi_lattice()).
/// Exposed for tests; requires k < r.
using Gt4Decomp = bigint::Decomp4;
Gt4Decomp decompose_gt(const bigint::U256& k);

}  // namespace ibbe::pairing

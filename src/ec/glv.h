// Endomorphism-accelerated scalar multiplication for the BN254 groups.
//
// G1 (GLV): the curve y^2 = x^3 + 3 has the cheap endomorphism
//   phi(x, y) = (beta x, y),   beta a primitive cube root of unity in Fp,
// which acts on the order-r subgroup as multiplication by lambda, a cube
// root of unity mod r. A scalar k splits as k = k0 + k1*lambda (mod r) with
// |k0|, |k1| ~ sqrt(r) via lattice reduction, so one ~254-bit ladder becomes
// a simultaneous ~128-bit double-and-add over {P, phi(P)}.
//
// G2 (4-dim GLS): the untwist-Frobenius-twist map
//   psi(x, y) = (conj(x) g2, conj(y) g3),   g_k = xi^(k(p-1)/6),
// acts on G2 as multiplication by mu = p = t - 1 = 6u^2 (mod r). mu has the
// degree-4 minimal polynomial X^4 - X^2 + 1 on the order-r subgroup (the
// cyclotomic quartic that also governs the Gt Frobenius), so k splits into
// FOUR ~65-bit sub-scalars over {Q, psi(Q), psi^2(Q), psi^3(Q)} via Babai
// round-off against an LLL-reduced u-linear lattice basis (bigint/lattice4.h
// — the exact machinery, and in fact the exact lattice, of the Gt engine in
// pairing/gt_exp.cpp). The joint 4-term wNAF ladder needs ~64 shared
// doublings where a plain ladder needs ~254.
//
// All constants (beta, lambda, the GLV lattice basis and its rounding
// reciprocals, 6u^2, the psi lattice) are literals or compile-time
// expressions in u, so the maps cost no set-up. tests/curve_constants_test.cpp
// pins each one by its defining property (phi = [lambda] on G1, the basis
// rows lie in the lattice with determinant r, the reciprocals round
// correctly, psi = [6u^2] on G2) with arbitrary-precision arithmetic.
#pragma once

#include "bigint/lattice4.h"
#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/endo.h"

namespace ibbe::ec {

/// The G1 GLV constants. phi(x, y) = (beta x, y) acts on G1 as [lambda];
/// v1 = (a1, -b1) and v2 = (a2, b2) span {(a, b) : a + b lambda = 0 mod r}
/// with determinant a1 b2 + a2 b1 = r (the fields hold magnitudes; the one
/// negative entry is built into the decomposition); g1 = round(b2 2^254 / r)
/// and g2 = round(b1 2^254 / r) are the Babai rounding reciprocals.
struct GlvConstants {
  field::Fp beta;  // primitive cube root of unity in Fp
  bigint::U256 lambda;  // primitive cube root of unity mod r
  bigint::U256 a1, b1, a2, b2;
  bigint::U256 g1, g2;
};
const GlvConstants& glv_constants();

/// phi(X, Y, Z) = (beta X, Y, Z); multiplication by lambda on G1.
G1 apply_phi(const G1& p);

/// psi = twist o Frobenius o untwist; multiplication by
/// bn_psi_lattice().lambda = 6u^2 on G2.
G2 apply_psi(const G2& p);
/// psi on an affine table entry (stays affine: the map is coordinate-wise).
AffinePt<field::Fp2> apply_psi(const AffinePt<field::Fp2>& p);

/// G2 membership for a point already on the twist E'(Fp2): true iff Q lies
/// in the order-r subgroup. Row 2 of the psi lattice, (u+1, u, u, -2u),
/// gives the test
///   [u+1]Q + psi([u]Q) + psi^2([u]Q) = psi^3([2u]Q)
/// (Scott, "A note on group membership tests for G1, G2 and GT on BLS
/// pairing-friendly curves", ePrint 2021/1130): one 63-bit ladder where the
/// r-multiply check needs a 254-bit one. The ladder is scalar_mul_wnaf, not
/// endo_pow<G2Ops>, which is correct only on G2 and so cannot decide it.
bool g2_in_subgroup(const G2& q);

/// The BN254 Ops of ec/endo.h (the comb and ladder behind G1::mul and
/// G2::mul, the IBBE key's w and h combs, and the endomorphism MSMs).
/// decompose() takes any U256 and reduces it mod r first, which agrees with
/// plain scalar_mul because both groups have order r.

/// G1: GLV over phi, k = (-1)^neg0 k0 + (-1)^neg1 k1 lambda (mod r). The
/// Babai coefficients are off by less than 1, so |k0| < a1 + a2 and
/// |k1| < b1 + b2, both below 2^127 (pinned in curve_constants_test.cpp).
/// The ladder keeps Jacobian entries: one Fp inversion costs more than
/// mixed additions save over ~50 additions.
struct G1Ops : CurveOps<G1> {
  using LadderEntry = G1;
  static constexpr std::size_t kDim = 2;
  static constexpr unsigned kSpan = 128;
  static constexpr unsigned kCombWindow = 6;
  static constexpr unsigned kLadderWindow = 4;
  static G1 endo(const G1& p) { return apply_phi(p); }
  static bigint::Decomp<2> decompose(const bigint::U256& k);
};

/// G2: the 4-dim split over psi against bn_psi_lattice(), whose sub-scalars
/// have fewer than max_sub_bits = kSpan bits (mathematically ~65). The ladder
/// tables are batch-normalized: one Fp2 inversion pays for mixed additions.
/// Points must lie in the order-r subgroup (true for every G2 value produced
/// by this library; untrusted twist points outside it must use scalar_mul).
struct G2Ops : CurveOps<G2> {
  using LadderEntry = AffinePt<field::Fp2>;
  static constexpr std::size_t kDim = 4;
  static constexpr unsigned kSpan = 72;
  static constexpr unsigned kCombWindow = 8;
  static constexpr unsigned kLadderWindow = 4;
  static G2 endo(const G2& p) { return apply_psi(p); }
  static LadderEntry endo(const LadderEntry& p) { return apply_psi(p); }
  static bigint::Decomp4 decompose(const bigint::U256& k);
};

/// The shared psi/Frobenius lattice: LLL-reduced basis of
/// {(a0..a3) : sum a_i (6u^2)^i = 0 mod r}, entries all +-u, +-(u+1), +-2u
/// or +-(2u+1). psi on G2 and the p-power Frobenius on Gt share the
/// eigenvalue lambda = 6u^2 = p mod r, so G2Ops::decompose serves both
/// (pairing::GtOps calls it).
const bigint::Lattice4& bn_psi_lattice();

}  // namespace ibbe::ec

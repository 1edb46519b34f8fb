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
/// g2_mul_endo4, which is correct only on G2 and so cannot decide it.
bool g2_in_subgroup(const G2& q);

/// Two-dimensional scalar decomposition: k = (-1)^neg0 k0 + (-1)^neg1 k1 * eig
/// (mod r), with k0, k1 < ~2^131.
struct EndoDecomp {
  bigint::U256 k0;
  bigint::U256 k1;
  bool neg0 = false;
  bool neg1 = false;
};

/// GLV split of k (any U256; reduced mod r internally).
EndoDecomp decompose_glv(const bigint::U256& k);

/// k*P via GLV (valid for any P in G1; k reduced mod r, which agrees with
/// plain scalar_mul because G1 has order r).
G1 g1_mul_endo(const G1& p, const bigint::U256& k);

// ------------------------------------------------------------- 4-dim GLS

/// The shared psi/Frobenius lattice: LLL-reduced basis of
/// {(a0..a3) : sum a_i (6u^2)^i = 0 mod r}, entries all +-u, +-(u+1), +-2u
/// or +-(2u+1). psi on G2 and the p-power Frobenius on Gt share the
/// eigenvalue lambda = 6u^2 = p mod r, so this single instance serves both
/// engines (pairing/gt_exp.cpp borrows it). Sub-scalars are bounded by
/// max_sub_bits = 72 bits (mathematically ~65).
const bigint::Lattice4& bn_psi_lattice();

/// Four-dimensional GLS split of k (any U256; reduced mod r internally):
/// k = sum_i (-1)^neg[i] k[i] mu^i (mod r) with k[i] < ~2^66.
bigint::Decomp4 decompose_gls4(const bigint::U256& k);

/// k*Q via the 4-dim psi decomposition: one joint width-4 wNAF ladder of
/// ~64 shared doublings over batch-normalized affine tables for
/// {Q, psi(Q), psi^2(Q), psi^3(Q)}. Q must lie in the order-r subgroup
/// (true for every G2 value produced by this library; untrusted twist points
/// outside the subgroup must use scalar_mul).
G2 g2_mul_endo4(const G2& q, const bigint::U256& k);

}  // namespace ibbe::ec

// Optimal-ate pairing e: G1 x G2 -> GT over BN254.
//
// Structure (Vercauteren 2010, for BN curves with u > 0):
//   f = f_{6u+2,Q}(P) . l_{[6u+2]Q, pi(Q)}(P) . l_{[6u+2]Q + pi(Q), -pi^2(Q)}(P)
//   e(P, Q) = f^((p^12 - 1)/r)
//
// The Miller loop runs over homogeneous projective coordinates on the twist
// (Costello–Lange–Naehrig-style doubling/addition line formulas), so it
// performs ZERO field inversions: every line is scaled by its Fp2 denominator
// instead, which the final exponentiation kills (any Fp2 factor has order
// dividing p^2 - 1, a divisor of (p^12 - 1)/r). The loop walks the signed
// NAF of 6u + 2, a compile-time table. Lines embed sparsely into Fp12 as
//   l(P) = a y_P + b x_P w + c w^3,   a, b, c in Fp2 depending only on Q.
//
// Because the (a, b, c) triples depend only on Q, they can be computed once
// per G2 point (`G2Prepared`) and replayed against any number of G1 points —
// fixed-argument pairings (the PK's h-powers) skip all G2 point arithmetic.
// Multi-pairings share one f.square() per loop iteration across all pairs and
// a single final exponentiation.
//
// The final exponentiation factors as (p^6-1)(p^2+1) . (p^4-p^2+1)/r; the
// hard part uses the BN u-decomposition (three 63-bit cyclotomic
// exponentiations by u plus Frobenius maps, Scott et al. 2009). The
// reference oracles — the affine Miller loop and the naive big-integer
// final exponentiation — live in tests/support/pairing_oracle.h.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "ec/curves.h"
#include "field/fp12.h"
#include "pairing/gt.h"

namespace ibbe::pairing {

/// Coefficients of one Miller-loop line, l(P) = a y_P + b x_P w + c w^3.
/// They depend only on Q; the G1 coordinates scale a and b at evaluation.
struct LineCoeffs {
  field::Fp2 a, b, c;
};

/// Pairing precomputation for a fixed G2 argument: every line coefficient of
/// the optimal-ate Miller loop, computed once with the inversion-free
/// projective point arithmetic. Pairing against a G2Prepared performs no G2
/// point math at all.
class G2Prepared {
 public:
  /// Prepared point at infinity (pairs to 1 with everything).
  G2Prepared() = default;
  explicit G2Prepared(const ec::G2& q);

  [[nodiscard]] bool is_infinity() const { return coeffs_.empty(); }
  [[nodiscard]] const std::vector<LineCoeffs>& coeffs() const { return coeffs_; }

 private:
  std::vector<LineCoeffs> coeffs_;
};

/// One (G1, prepared G2) input of a multi-pairing.
struct PairingInput {
  ec::G1 g1;
  const G2Prepared* g2;
};

/// Miller loop only (no final exponentiation). Returns 1 if either input is
/// the point at infinity.
field::Fp12 miller_loop(const ec::G1& p, const ec::G2& q);
field::Fp12 miller_loop(const ec::G1& p, const G2Prepared& q);

/// (p^12 - 1)/r exponentiation: easy part + u-decomposed cyclotomic hard part.
field::Fp12 final_exponentiation(const field::Fp12& f);

/// Final exponentiation of many INDEPENDENT Miller-loop outputs (distinct
/// pairing values, not one product). Element-wise identical to calling
/// final_exponentiation on each, but the easy part's Fp12 inversions are
/// batched through one Montgomery simultaneous inversion. Used by the
/// HE-IBE bulk grant (HeIbeScheme::grant_many).
std::vector<field::Fp12> final_exponentiation_many(
    std::span<const field::Fp12> fs);

/// The full pairing.
Gt pairing(const ec::G1& p, const ec::G2& q);
Gt pairing(const ec::G1& p, const G2Prepared& q);

/// prod_i e(p_i, q_i) as a true multi-pairing: one shared f.square() per
/// Miller iteration across all pairs and a single final exponentiation.
Gt pairing_product(std::span<const std::pair<ec::G1, ec::G2>> pairs);

/// Multi-pairing over precomputed G2 arguments (null g2 pointers are
/// rejected; infinity on either side skips the pair). The decrypt path
/// computes e(C1, h^p_i) * e(USK, C2) this way.
Gt pairing_product_prepared(std::span<const PairingInput> pairs);

}  // namespace ibbe::pairing

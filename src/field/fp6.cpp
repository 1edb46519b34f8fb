#include "field/fp6.h"

#include "field/lazy.h"
#include "field/tower_consts.h"

namespace ibbe::field {

Fp6 operator*(const Fp6& a, const Fp6& b) {
  // Lazy schoolbook with v^3 = xi folded INTO the right-hand operands:
  // multiplying b1/b2 by xi up front (cheap shift-and-add, no reduction)
  // turns every xi-weighted term into a plain product, so each output
  // coefficient is a sum of three unreduced Fp2Wide products — 27 wide
  // multiplications and 6 REDCs total, versus 27 + 27 for the reduced
  // schoolbook. Component bounds: 3 * (2, 4) = (6, 12) p^2, within the
  // 27 p^2 accumulator ceiling (field/lazy.h).
  //   c0 = a0 b0 + a1 (xi b2) + a2 (xi b1)
  //   c1 = a0 b1 + a1 b0     + a2 (xi b2)
  //   c2 = a0 b2 + a1 b1     + a2 b0
  const Fp2 xi_b1 = b.c1_.mul_by_xi();
  const Fp2 xi_b2 = b.c2_.mul_by_xi();
  Fp2Wide c0 = Fp2Wide::mul(a.c0_, b.c0_);
  c0.add(Fp2Wide::mul(a.c1_, xi_b2));
  c0.add(Fp2Wide::mul(a.c2_, xi_b1));
  Fp2Wide c1 = Fp2Wide::mul(a.c0_, b.c1_);
  c1.add(Fp2Wide::mul(a.c1_, b.c0_));
  c1.add(Fp2Wide::mul(a.c2_, xi_b2));
  Fp2Wide c2 = Fp2Wide::mul(a.c0_, b.c2_);
  c2.add(Fp2Wide::mul(a.c1_, b.c1_));
  c2.add(Fp2Wide::mul(a.c2_, b.c0_));
  return {c0.redc(), c1.redc(), c2.redc()};
}

Fp6 Fp6::mul_by_01(const Fp2& b0, const Fp2& b1) const {
  // Sparse lazy schoolbook, same pre-multiplied-xi scheme as operator*:
  // c0 = a0 b0 + a2 (xi b1), c1 = a0 b1 + a1 b0, c2 = a1 b1 + a2 b0.
  // 6 Fp2Wide products, 6 REDCs; bounds (4, 8) p^2.
  const Fp2 xi_b1 = b1.mul_by_xi();
  Fp2Wide c0 = Fp2Wide::mul(c0_, b0);
  c0.add(Fp2Wide::mul(c2_, xi_b1));
  Fp2Wide c1 = Fp2Wide::mul(c0_, b1);
  c1.add(Fp2Wide::mul(c1_, b0));
  Fp2Wide c2 = Fp2Wide::mul(c1_, b1);
  c2.add(Fp2Wide::mul(c2_, b0));
  return {c0.redc(), c1.redc(), c2.redc()};
}

Fp6 Fp6::inverse() const {
  // Standard cubic-extension inversion (e.g. Guide to Pairing-Based
  // Cryptography, alg. 5.23).
  Fp2 t0 = c0_.square() - (c1_ * c2_).mul_by_xi();
  Fp2 t1 = c2_.square().mul_by_xi() - c0_ * c1_;
  Fp2 t2 = c1_.square() - c0_ * c2_;
  Fp2 denom = c0_ * t0 + (c1_ * t2 + c2_ * t1).mul_by_xi();
  Fp2 d = denom.inverse();
  return {t0 * d, t1 * d, t2 * d};
}

Fp6 Fp6::frobenius() const {
  const auto& g = kFrobeniusGamma;
  // v^p = xi^((p-1)/3) v = g2 * v ; (v^2)^p = g4 * v^2.
  return {c0_.conjugate(), c1_.conjugate() * g[1], c2_.conjugate() * g[3]};
}

}  // namespace ibbe::field

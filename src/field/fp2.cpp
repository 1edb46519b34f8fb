#include "field/fp2.h"

#include "field/lazy.h"

namespace ibbe::field {

Fp2 operator*(const Fp2& a, const Fp2& b) {
  // Lazy Karatsuba over i^2 = -1: 3 wide products, 2 REDCs (field/lazy.h).
  return Fp2Wide::mul(a, b).redc();
}

Fp2 Fp2::square() const {
  // (a+bi)^2 = (a+b)(a-b) + 2ab i: 2 wide products, 2 REDCs.
  return Fp2Wide::square(*this).redc();
}

Fp2 Fp2::inverse() const {
  // (a+bi)^-1 = (a - bi) / (a^2 + b^2); the norm accumulates both squares
  // into one wide word (<= 2p^2) and reduces once.
  FpWide norm = FpWide::product(c0_, c0_);
  norm.add(FpWide::product(c1_, c1_));
  Fp d = norm.redc().inverse();
  return {c0_ * d, (c1_ * d).neg()};
}

Fp2 Fp2::mul_by_xi() const {
  // (9 + i)(a + bi) = (9a - b) + (9b + a) i; 9x = 8x + x.
  Fp nine_a = c0_.dbl().dbl().dbl() + c0_;
  Fp nine_b = c1_.dbl().dbl().dbl() + c1_;
  return {nine_a - c1_, nine_b + c0_};
}

Fp2 Fp2::pow(const bigint::U256& e) const {
  Fp2 result = one();
  for (unsigned i = e.bit_length(); i-- > 0;) {
    result = result.square();
    if (e.bit(i)) result *= *this;
  }
  return result;
}

std::optional<Fp2> Fp2::sqrt() const {
  // Algorithm for q = p^2 with p = 3 (mod 4), cf. RFC 9380 appendix I.2.
  if (is_zero()) return zero();
  bigint::U256 p_minus_3, p_minus_1;
  bigint::sub_with_borrow(Fp::modulus(), bigint::U256::from_u64(3), p_minus_3);
  bigint::sub_with_borrow(Fp::modulus(), bigint::U256::one(), p_minus_1);
  const bigint::U256 c1 = bigint::shr(p_minus_3, 2);  // (p-3)/4
  const bigint::U256 c2 = bigint::shr(p_minus_1, 1);  // (p-1)/2

  Fp2 a1 = pow(c1);
  Fp2 alpha = a1.square() * *this;
  Fp2 x0 = a1 * *this;
  Fp2 candidate;
  if (alpha == Fp2(Fp::one().neg(), Fp::zero())) {
    // x = i * x0
    candidate = Fp2(x0.c1().neg(), x0.c0());
  } else {
    Fp2 b = (Fp2::one() + alpha).pow(c2);
    candidate = b * x0;
  }
  if (candidate.square() == *this) return candidate;
  return std::nullopt;
}

}  // namespace ibbe::field

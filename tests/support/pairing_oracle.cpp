#include "support/pairing_oracle.h"

#include <stdexcept>

#include "field/tower_consts.h"

namespace ibbe::pairing {

using bigint::BigUInt;
using ec::G1;
using ec::G2;
using field::Fp;
using field::Fp12;
using field::Fp2;

namespace {

/// The BN parameter u = 4965661367192848881 (63 bits, positive).
constexpr std::uint64_t kBnU = 0x44e992b44a6909f1ULL;

/// Affine point on the twist.
struct TwistPoint {
  Fp2 x;
  Fp2 y;
};

/// pi(x, y) = (conj(x) g2, conj(y) g3) with g_k = xi^(k(p-1)/6).
TwistPoint twist_frobenius(const TwistPoint& q) {
  const auto& g = field::kFrobeniusGamma;
  return {q.x.conjugate() * g[1], q.y.conjugate() * g[2]};
}

}  // namespace

const BigUInt& ate_loop_count() {
  static const BigUInt s = BigUInt(6) * BigUInt(kBnU) + BigUInt(2);
  return s;
}

const BigUInt& hard_exponent() {
  static const BigUInt d = [] {
    BigUInt p = BigUInt::from_u256(Fp::modulus());
    BigUInt r = BigUInt::from_u256(field::Fr::modulus());
    BigUInt p2 = p * p;
    BigUInt p4 = p2 * p2;
    auto [q, rem] = BigUInt::divmod(p4 - p2 + BigUInt(1), r);
    if (!rem.is_zero()) {
      throw std::logic_error("BN254 constants inconsistent: r does not divide p^4-p^2+1");
    }
    return q;
  }();
  return d;
}

Fp12 miller_loop_affine(const G1& p, const G2& q) {
  auto pa = p.to_affine();
  auto qa = q.to_affine();
  if (!pa || !qa) return Fp12::one();
  const Fp xp = pa->first;
  const Fp yp = pa->second;
  const TwistPoint q0{qa->first, qa->second};

  // Affine tangent/chord steps, one Fp2 inversion each.
  TwistPoint t = q0;
  auto affine_dbl = [&](Fp12& f) {
    Fp2 xx = t.x.square();
    Fp2 lambda = (xx.dbl() + xx) * t.y.dbl().inverse();
    Fp2 c = lambda * t.x - t.y;
    f = f.mul_by_line(Fp2::from_fp(yp), lambda.mul_by_fp(xp).neg(), c);
    Fp2 x3 = lambda.square() - t.x.dbl();
    t.y = lambda * (t.x - x3) - t.y;
    t.x = x3;
  };
  auto affine_add = [&](Fp12& f, const TwistPoint& q_add) {
    if (t.x == q_add.x) {
      if (t.y != q_add.y) {
        throw std::logic_error("pairing: degenerate addition step (input not in G2?)");
      }
      affine_dbl(f);
      return;
    }
    Fp2 lambda = (q_add.y - t.y) * (q_add.x - t.x).inverse();
    Fp2 c = lambda * t.x - t.y;
    f = f.mul_by_line(Fp2::from_fp(yp), lambda.mul_by_fp(xp).neg(), c);
    Fp2 x3 = lambda.square() - t.x - q_add.x;
    t.y = lambda * (t.x - x3) - t.y;
    t.x = x3;
  };

  Fp12 f = Fp12::one();
  const BigUInt& s = ate_loop_count();
  for (unsigned i = s.bit_length() - 1; i-- > 0;) {
    f = f.square();
    affine_dbl(f);
    if (s.bit(i)) affine_add(f, q0);
  }
  TwistPoint q1 = twist_frobenius(q0);
  TwistPoint q2 = twist_frobenius(q1);
  affine_add(f, q1);
  affine_add(f, {q2.x, q2.y.neg()});
  return f;
}

Fp12 pow_cyclotomic_big(const Fp12& x, const BigUInt& e) {
  Fp12 result = Fp12::one();
  for (unsigned i = e.bit_length(); i-- > 0;) {
    result = result.cyclotomic_square();
    if (e.bit(i)) result *= x;
  }
  return result;
}

Fp12 final_exponentiation_naive(const Fp12& f) {
  Fp12 t = f.conjugate() * f.inverse();  // f^(p^6 - 1)
  t = t.frobenius().frobenius() * t;     // ^(p^2 + 1)
  return pow_cyclotomic_big(t, hard_exponent());
}

}  // namespace ibbe::pairing

#include "field/fp12.h"

#include <stdexcept>

#include "field/tower_consts.h"

namespace ibbe::field {

Fp12 operator*(const Fp12& a, const Fp12& b) {
  // Karatsuba over w^2 = v.
  Fp6 t0 = a.c0_ * b.c0_;
  Fp6 t1 = a.c1_ * b.c1_;
  Fp6 mixed = (a.c0_ + a.c1_) * (b.c0_ + b.c1_);
  return {t0 + t1.mul_by_v(), mixed - t0 - t1};
}

Fp12 Fp12::square() const {
  // (a0 + a1 w)^2 = (a0^2 + v a1^2) + 2 a0 a1 w
  //              = ((a0+a1)(a0 + v a1) - a0a1 - v a0a1) + 2 a0a1 w
  Fp6 a0a1 = c0_ * c1_;
  Fp6 t = (c0_ + c1_) * (c0_ + c1_.mul_by_v());
  return {t - a0a1 - a0a1.mul_by_v(), a0a1 + a0a1};
}

Fp12 Fp12::inverse() const {
  // (a0 + a1 w)^-1 = (a0 - a1 w) / (a0^2 - v a1^2)
  Fp6 norm = c0_.square() - c1_.square().mul_by_v();
  Fp6 d = norm.inverse();
  return {c0_ * d, (c1_ * d).neg()};
}

Fp12 Fp12::frobenius() const {
  const auto& g = kFrobeniusGamma;
  // w^p = g1 * w, so the w-part picks up a scalar g1 after the Fp6 Frobenius.
  return {c0_.frobenius(), c1_.frobenius().mul_by_fp2(g[0])};
}

Fp12 Fp12::mul_by_line(const Fp2& a, const Fp2& b, const Fp2& c) const {
  // Line element L = A + B w with A = (a, 0, 0), B = (b, c, 0), so
  // A + B = (a + b, c, 0) and both Fp6 products are mul_by_01-sparse.
  // Karatsuba as in operator*, but with the cheaper sparse operands.
  Fp6 t0 = c0_.mul_by_fp2(a);
  Fp6 t1 = c1_.mul_by_01(b, c);
  Fp6 mixed = (c0_ + c1_).mul_by_01(a + b, c);
  return {t0 + t1.mul_by_v(), mixed - t0 - t1};
}

Fp12 Fp12::pow(const bigint::U256& e) const {
  Fp12 result = one();
  for (unsigned i = e.bit_length(); i-- > 0;) {
    result = result.square();
    if (e.bit(i)) result *= *this;
  }
  return result;
}

namespace {

// Fp4 squaring helper for Granger–Scott: squares a + b*t with t^2 = v... the
// quadratic over Fp2 with non-residue xi. Returns (out_a, out_b).
std::pair<Fp2, Fp2> fp4_square(const Fp2& a, const Fp2& b) {
  Fp2 t0 = a.square();
  Fp2 t1 = b.square();
  Fp2 out_a = t1.mul_by_xi() + t0;
  Fp2 out_b = (a + b).square() - t0 - t1;
  return {out_a, out_b};
}

}  // namespace

Fp12 Fp12::cyclotomic_square() const {
  // Granger–Scott "On the final exponentiation..." squaring for GΦ6(p^2).
  const Fp2& c0c0 = c0_.c0();
  const Fp2& c0c1 = c0_.c1();
  const Fp2& c0c2 = c0_.c2();
  const Fp2& c1c0 = c1_.c0();
  const Fp2& c1c1 = c1_.c1();
  const Fp2& c1c2 = c1_.c2();

  auto [t3, t4] = fp4_square(c0c0, c1c1);
  auto [t5, t6] = fp4_square(c1c0, c0c2);
  auto [t7, t8] = fp4_square(c0c1, c1c2);
  Fp2 t9 = t8.mul_by_xi();

  Fp2 o00 = (t3 - c0c0).dbl() + t3;
  Fp2 o01 = (t5 - c0c1).dbl() + t5;
  Fp2 o02 = (t7 - c0c2).dbl() + t7;
  Fp2 o10 = (t9 + c1c0).dbl() + t9;
  Fp2 o11 = (t4 + c1c1).dbl() + t4;
  Fp2 o12 = (t6 + c1c2).dbl() + t6;

  return {Fp6(o00, o01, o02), Fp6(o10, o11, o12)};
}

Fp12 Fp12::pow_cyclotomic(const bigint::U256& e) const {
  Fp12 result = one();
  for (unsigned i = e.bit_length(); i-- > 0;) {
    result = result.cyclotomic_square();
    if (e.bit(i)) result *= *this;
  }
  return result;
}

Fp12Compressed Fp12::compress() const {
  return {c1_.c0(), c0_.c2(), c0_.c1(), c1_.c2()};
}

Fp12Compressed Fp12Compressed::square() const {
  // The Granger–Scott output coordinates (c0.c1, c0.c2, c1.c0, c1.c2) depend
  // only on those same four inputs (see cyclotomic_square above); these are
  // its formulas restricted to that closed subsystem.
  Fp2 g2_sq = g2_.square();
  Fp2 g3_sq = g3_.square();
  Fp2 g4_sq = g4_.square();
  Fp2 g5_sq = g5_.square();

  Fp2 t5 = g3_sq.mul_by_xi() + g2_sq;           // fp4_square(c1.c0, c0.c2).a
  Fp2 t7 = g5_sq.mul_by_xi() + g4_sq;           // fp4_square(c0.c1, c1.c2).a
  Fp2 t6 = (g2_ + g3_).square() - g2_sq - g3_sq;  // 2 c1.c0 c0.c2
  Fp2 t9 = ((g4_ + g5_).square() - g4_sq - g5_sq).mul_by_xi();

  Fp2 out_g4 = (t5 - g4_).dbl() + t5;
  Fp2 out_g3 = (t7 - g3_).dbl() + t7;
  Fp2 out_g2 = (t9 + g2_).dbl() + t9;
  Fp2 out_g5 = (t6 + g5_).dbl() + t6;
  return {out_g2, out_g3, out_g4, out_g5};
}

void Fp12Compressed::g1_fraction(Fp2& num, Fp2& den) const {
  if (!g2_.is_zero()) {
    // g1 = (xi g5^2 + 3 g4^2 - 2 g3) / (4 g2)
    Fp2 g4_sq = g4_.square();
    num = g5_.square().mul_by_xi() + g4_sq.dbl() + g4_sq - g3_.dbl();
    den = g2_.dbl().dbl();
    return;
  }
  // g2 = 0 branch: g1 = 2 g4 g5 / g3. A cyclotomic element with g2 = g3 = 0
  // has g1 = 0 (the identity is the canonical case), so fall back to 0/1
  // rather than evaluating the now-indeterminate quotient.
  if (g3_.is_zero()) {
    num = Fp2::zero();
    den = Fp2::one();
    return;
  }
  num = (g4_ * g5_).dbl();
  den = g3_;
}

Fp12 Fp12Compressed::complete(const Fp2& g1) const {
  // g0 = xi (2 g1^2 + g2 g5 - 3 g3 g4) + 1
  Fp2 g3g4 = g3_ * g4_;
  Fp2 t = g1.square().dbl() + g2_ * g5_ - g3g4.dbl() - g3g4;
  Fp2 g0 = t.mul_by_xi() + Fp2::one();
  return {Fp6(g0, g4_, g3_), Fp6(g2_, g1, g5_)};
}

Fp12 Fp12Compressed::decompress() const {
  Fp2 num, den;
  g1_fraction(num, den);
  return complete(num * den.inverse());
}

std::vector<Fp12> Fp12Compressed::decompress_many(
    std::span<const Fp12Compressed> xs) {
  std::vector<Fp2> nums(xs.size());
  std::vector<Fp2> dens(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i].g1_fraction(nums[i], dens[i]);
  }
  batch_inverse(std::span<Fp2>(dens));
  std::vector<Fp12> out;
  out.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(xs[i].complete(nums[i] * dens[i]));
  }
  return out;
}

util::Bytes Fp12::to_bytes() const {
  util::ByteWriter w;
  for (const Fp6* h : {&c0_, &c1_}) {
    for (const Fp2* q : {&h->c0(), &h->c1(), &h->c2()}) {
      w.raw(q->c0().to_be_bytes());
      w.raw(q->c1().to_be_bytes());
    }
  }
  return w.take();
}

Fp12 Fp12::from_bytes(std::span<const std::uint8_t> data) {
  if (data.size() != serialized_size) {
    throw util::DeserializeError("Fp12: need 384 bytes");
  }
  std::array<Fp, 12> coeffs;
  for (std::size_t i = 0; i < 12; ++i) {
    bigint::U256 raw = bigint::U256::from_be_bytes(data.subspan(32 * i, 32));
    if (bigint::cmp(raw, Fp::modulus()) >= 0) {
      throw util::DeserializeError("Fp12: coefficient not in field");
    }
    coeffs[i] = Fp::from_u256(raw);
  }
  Fp6 c0(Fp2(coeffs[0], coeffs[1]), Fp2(coeffs[2], coeffs[3]),
         Fp2(coeffs[4], coeffs[5]));
  Fp6 c1(Fp2(coeffs[6], coeffs[7]), Fp2(coeffs[8], coeffs[9]),
         Fp2(coeffs[10], coeffs[11]));
  return {c0, c1};
}

}  // namespace ibbe::field

// Cubic extension Fp6 = Fp2[v] / (v^3 - xi), the middle floor of the tower.
#pragma once

#include "field/fp2.h"

namespace ibbe::field {

class Fp6 {
 public:
  Fp6() = default;
  Fp6(Fp2 c0, Fp2 c1, Fp2 c2) : c0_(c0), c1_(c1), c2_(c2) {}

  static Fp6 zero() { return {}; }
  static Fp6 one() { return {Fp2::one(), Fp2::zero(), Fp2::zero()}; }

  [[nodiscard]] const Fp2& c0() const { return c0_; }
  [[nodiscard]] const Fp2& c1() const { return c1_; }
  [[nodiscard]] const Fp2& c2() const { return c2_; }

  [[nodiscard]] bool is_zero() const {
    return c0_.is_zero() && c1_.is_zero() && c2_.is_zero();
  }
  [[nodiscard]] bool is_one() const {
    return c0_.is_one() && c1_.is_zero() && c2_.is_zero();
  }

  friend Fp6 operator+(const Fp6& a, const Fp6& b) {
    return {a.c0_ + b.c0_, a.c1_ + b.c1_, a.c2_ + b.c2_};
  }
  friend Fp6 operator-(const Fp6& a, const Fp6& b) {
    return {a.c0_ - b.c0_, a.c1_ - b.c1_, a.c2_ - b.c2_};
  }
  friend Fp6 operator*(const Fp6& a, const Fp6& b);
  Fp6& operator+=(const Fp6& o) { return *this = *this + o; }
  Fp6& operator-=(const Fp6& o) { return *this = *this - o; }
  Fp6& operator*=(const Fp6& o) { return *this = *this * o; }

  [[nodiscard]] Fp6 neg() const { return {c0_.neg(), c1_.neg(), c2_.neg()}; }
  [[nodiscard]] Fp6 square() const { return *this * *this; }
  /// Throws std::domain_error on zero.
  [[nodiscard]] Fp6 inverse() const;
  /// Multiplication by v (shifts coefficients; wraps through xi).
  [[nodiscard]] Fp6 mul_by_v() const {
    return {c2_.mul_by_xi(), c0_, c1_};
  }
  [[nodiscard]] Fp6 mul_by_fp2(const Fp2& s) const {
    return {c0_ * s, c1_ * s, c2_ * s};
  }
  /// Sparse multiplication by b0 + b1 v (the shape of a Miller-loop line
  /// factor embedded in Fp6): 5 Fp2 multiplications instead of 6.
  [[nodiscard]] Fp6 mul_by_01(const Fp2& b0, const Fp2& b1) const;

  /// p-power Frobenius.
  [[nodiscard]] Fp6 frobenius() const;

  friend bool operator==(const Fp6&, const Fp6&) = default;

 private:
  Fp2 c0_;
  Fp2 c1_;
  Fp2 c2_;
};

}  // namespace ibbe::field

// Quadratic extension Fp2 = Fp[i] / (i^2 + 1) of the BN254 base field.
//
// G2 coordinates live here, as does the ground floor of the Fp12 tower. The
// sextic non-residue used by the next floor is xi = 9 + i.
#pragma once

#include <optional>

#include "bigint/u256.h"
#include "field/fields.h"

namespace ibbe::field {

class Fp2 {
 public:
  /// Zero.
  Fp2() = default;
  constexpr Fp2(Fp c0, Fp c1) : c0_(c0), c1_(c1) {}

  static Fp2 zero() { return {}; }
  static Fp2 one() { return {Fp::one(), Fp::zero()}; }
  static Fp2 from_fp(const Fp& a) { return {a, Fp::zero()}; }
  /// The sextic non-residue xi = 9 + i.
  static Fp2 xi() { return {Fp::from_u64(9), Fp::one()}; }

  [[nodiscard]] const Fp& c0() const { return c0_; }
  [[nodiscard]] const Fp& c1() const { return c1_; }

  [[nodiscard]] bool is_zero() const { return c0_.is_zero() && c1_.is_zero(); }
  [[nodiscard]] bool is_one() const { return c0_.is_one() && c1_.is_zero(); }

  friend Fp2 operator+(const Fp2& a, const Fp2& b) {
    return {a.c0_ + b.c0_, a.c1_ + b.c1_};
  }
  friend Fp2 operator-(const Fp2& a, const Fp2& b) {
    return {a.c0_ - b.c0_, a.c1_ - b.c1_};
  }
  friend Fp2 operator*(const Fp2& a, const Fp2& b);
  Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
  Fp2& operator-=(const Fp2& o) { return *this = *this - o; }
  Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  [[nodiscard]] Fp2 neg() const { return {c0_.neg(), c1_.neg()}; }
  [[nodiscard]] Fp2 square() const;
  [[nodiscard]] Fp2 dbl() const { return {c0_.dbl(), c1_.dbl()}; }
  /// Throws std::domain_error on zero.
  [[nodiscard]] Fp2 inverse() const;
  [[nodiscard]] Fp2 conjugate() const { return {c0_, c1_.neg()}; }
  /// Multiplication by the non-residue xi = 9 + i.
  [[nodiscard]] Fp2 mul_by_xi() const;
  [[nodiscard]] Fp2 mul_by_fp(const Fp& s) const { return {c0_ * s, c1_ * s}; }

  [[nodiscard]] Fp2 pow(const bigint::U256& e) const;

  /// Square root (p = 3 mod 4 algorithm); std::nullopt for non-residues.
  /// Used by G2 point decompression.
  [[nodiscard]] std::optional<Fp2> sqrt() const;

  /// Canonical "sign" for compression: parity of c0 (or of c1 when c0 = 0).
  [[nodiscard]] bool is_odd() const {
    return c0_.is_zero() ? c1_.is_odd() : c0_.is_odd();
  }

  friend bool operator==(const Fp2&, const Fp2&) = default;

 private:
  Fp c0_;
  Fp c1_;
};

}  // namespace ibbe::field

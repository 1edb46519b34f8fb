// Fp12 = Fp6[w] / (w^2 - v): the pairing target field.
//
// Values returned by the final exponentiation live in the cyclotomic
// subgroup, where the cheaper Granger–Scott squaring applies; `pow` on Gt
// elements routes through it (see pairing/gt.h).
#pragma once

#include <span>
#include <vector>

#include "bigint/u256.h"
#include "field/fp6.h"
#include "util/bytes.h"

namespace ibbe::field {

class Fp12Compressed;

class Fp12 {
 public:
  Fp12() = default;
  Fp12(Fp6 c0, Fp6 c1) : c0_(c0), c1_(c1) {}

  static Fp12 zero() { return {}; }
  static Fp12 one() { return {Fp6::one(), Fp6::zero()}; }

  [[nodiscard]] const Fp6& c0() const { return c0_; }
  [[nodiscard]] const Fp6& c1() const { return c1_; }

  [[nodiscard]] bool is_zero() const { return c0_.is_zero() && c1_.is_zero(); }
  [[nodiscard]] bool is_one() const { return c0_.is_one() && c1_.is_zero(); }

  friend Fp12 operator+(const Fp12& a, const Fp12& b) {
    return {a.c0_ + b.c0_, a.c1_ + b.c1_};
  }
  friend Fp12 operator-(const Fp12& a, const Fp12& b) {
    return {a.c0_ - b.c0_, a.c1_ - b.c1_};
  }
  friend Fp12 operator*(const Fp12& a, const Fp12& b);
  Fp12& operator*=(const Fp12& o) { return *this = *this * o; }

  [[nodiscard]] Fp12 square() const;
  /// Throws std::domain_error on zero.
  [[nodiscard]] Fp12 inverse() const;
  /// w-conjugate (a0, -a1) = x^(p^6); inverse on the cyclotomic subgroup.
  [[nodiscard]] Fp12 conjugate() const { return {c0_, c1_.neg()}; }

  /// p-power Frobenius.
  [[nodiscard]] Fp12 frobenius() const;

  /// Sparse multiplication by an optimal-ate line l = a + (b + c*v) * w with
  /// a, b, c in Fp2 (13 Fp2 multiplications instead of the 18 of a full Fp12
  /// multiplication). The projective Miller loop scales its lines by Fp2
  /// denominators, so all three coefficients live in Fp2.
  [[nodiscard]] Fp12 mul_by_line(const Fp2& a, const Fp2& b, const Fp2& c) const;

  [[nodiscard]] Fp12 pow(const bigint::U256& e) const;

  /// Granger–Scott squaring; valid only for elements of the cyclotomic
  /// subgroup (norm 1), i.e. outputs of the final exponentiation.
  [[nodiscard]] Fp12 cyclotomic_square() const;
  /// Exponentiation using cyclotomic squarings (same subgroup caveat).
  [[nodiscard]] Fp12 pow_cyclotomic(const bigint::U256& e) const;
  /// Karabina compression (same subgroup caveat); see Fp12Compressed.
  [[nodiscard]] Fp12Compressed compress() const;

  /// 384-byte canonical serialization (12 Fp values, big-endian, tower
  /// order c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1).
  [[nodiscard]] util::Bytes to_bytes() const;
  static Fp12 from_bytes(std::span<const std::uint8_t> data);
  static constexpr std::size_t serialized_size = 12 * 32;

  friend bool operator==(const Fp12&, const Fp12&) = default;

 private:
  Fp6 c0_;
  Fp6 c1_;
};

/// Karabina compressed representation of a cyclotomic-subgroup element
/// (eprint 2010/542): of the six Fp2 coordinates, (c0.c0, c1.c1) are
/// redundant for norm-1 elements and are dropped. The remaining four form a
/// closed system under cyclotomic squaring — `square` costs 6 Fp2 squarings
/// versus the 9 of the full Granger–Scott formula — at the price of one Fp2
/// inversion to decompress.
/// Square-heavy ladders (the final exponentiation's three pow-by-u chains)
/// stay compressed through the squaring runs and batch their decompressions
/// through one shared inversion (`decompress_many`, Montgomery's trick).
///
/// Only sound for cyclotomic-subgroup elements; compressing anything else
/// silently loses information.
class Fp12Compressed {
 public:
  /// Compressed cyclotomic squaring (6 Fp2 squarings).
  [[nodiscard]] Fp12Compressed square() const;

  /// Single-element decompression: one Fp2 inversion.
  [[nodiscard]] Fp12 decompress() const;
  /// Batch decompression: one Fp2 inversion total (Montgomery's
  /// simultaneous-inversion trick) plus a few multiplications per element.
  static std::vector<Fp12> decompress_many(std::span<const Fp12Compressed> xs);

 private:
  friend class Fp12;
  Fp12Compressed(const Fp2& g2, const Fp2& g3, const Fp2& g4, const Fp2& g5)
      : g2_(g2), g3_(g3), g4_(g4), g5_(g5) {}

  /// Numerator and denominator of the dropped c1.c1 coordinate (the final
  /// division is what `decompress`/`decompress_many` share).
  void g1_fraction(Fp2& num, Fp2& den) const;
  /// Rebuilds the full element from the recovered c1.c1.
  [[nodiscard]] Fp12 complete(const Fp2& g1) const;

  // Karabina's (g2, g3, g4, g5) = our (c1.c0, c0.c2, c0.c1, c1.c2).
  Fp2 g2_;
  Fp2 g3_;
  Fp2 g4_;
  Fp2 g5_;
};

}  // namespace ibbe::field

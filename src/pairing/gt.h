// GT: the order-r multiplicative target group of the pairing.
//
// Wraps an Fp12 value that is promised to lie in the cyclotomic subgroup
// (every constructor enforces provenance from a final exponentiation or GT
// operations), which makes inversion a conjugation and squaring cheap.
#pragma once

#include <span>

#include "field/fields.h"
#include "field/fp12.h"
#include "util/bytes.h"

namespace ibbe::pairing {

class Gt {
 public:
  /// Identity element.
  Gt() : v_(field::Fp12::one()) {}

  static Gt one() { return {}; }
  /// Wraps a value already in GT (output of a final exponentiation).
  static Gt from_fp12_unchecked(const field::Fp12& v) { return Gt(v); }

  [[nodiscard]] const field::Fp12& value() const { return v_; }
  [[nodiscard]] bool is_one() const { return v_.is_one(); }

  friend Gt operator*(const Gt& a, const Gt& b) { return Gt(a.v_ * b.v_); }
  Gt& operator*=(const Gt& o) { return *this = *this * o; }

  /// GT elements are unitary: x^(-1) = conj(x).
  [[nodiscard]] Gt inverse() const { return Gt(v_.conjugate()); }

  /// Exponentiation by a scalar in Zr, through ec::endo_pow<GtOps>
  /// (pairing/gt_exp.h): 4-dimensional Frobenius decomposition plus a joint
  /// wNAF ladder, ~2.8x the plain square-and-multiply pow_cyclotomic. Relies
  /// on the class invariant that the wrapped value has order r; a value
  /// smuggled in through from_bytes that is outside GT yields an unspecified
  /// (but non-crashing) wrong result, exactly as pow_cyclotomic did.
  [[nodiscard]] Gt exp(const field::Fr& k) const;

  [[nodiscard]] util::Bytes to_bytes() const { return v_.to_bytes(); }
  static Gt from_bytes(std::span<const std::uint8_t> data) {
    return Gt(field::Fp12::from_bytes(data));
  }
  static constexpr std::size_t serialized_size = field::Fp12::serialized_size;

  /// SHA-256 of the canonical serialization; the "SHA(bk)" of the paper's
  /// group-key wrap y_p = AES(SHA(bk), gk).
  [[nodiscard]] std::array<std::uint8_t, 32> hash() const;

  friend bool operator==(const Gt&, const Gt&) = default;

 private:
  explicit Gt(const field::Fp12& v) : v_(v) {}

  field::Fp12 v_;
};

}  // namespace ibbe::pairing

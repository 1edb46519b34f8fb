// Arbitrary-precision integers for the test oracles.
//
// The library runs on fixed-width U256/U512 words and curve constants that
// are literals; the tests check those literals, the Montgomery constants and
// the fast final exponentiation against values computed here from first
// principles. Clarity wins over speed: schoolbook multiplication and binary
// long division throughout.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bigint/u256.h"

namespace ibbe::bigint {

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(std::uint64_t v);
  static BigUInt from_hex(std::string_view hex);
  static BigUInt from_u256(const U256& v);
  static BigUInt from_be_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] std::string to_dec() const;
  /// Requires the value to fit in 256 bits.
  [[nodiscard]] U256 to_u256() const;
  [[nodiscard]] util::Bytes to_be_bytes() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] unsigned bit_length() const;
  [[nodiscard]] bool bit(unsigned i) const;
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  friend BigUInt operator+(const BigUInt& a, const BigUInt& b);
  /// Requires a >= b; throws std::underflow_error otherwise.
  friend BigUInt operator-(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator<<(const BigUInt& a, unsigned shift);
  friend BigUInt operator>>(const BigUInt& a, unsigned shift);

  /// (quotient, remainder) in one pass; divisor must be non-zero.
  static std::pair<BigUInt, BigUInt> divmod(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).first;
  }
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b) {
    return divmod(a, b).second;
  }

  /// (base^exp) mod m; test-oracle-grade square-and-multiply.
  static BigUInt pow_mod(const BigUInt& base, const BigUInt& exp, const BigUInt& m);
  /// Modular inverse via extended Euclid; throws if gcd(a, m) != 1.
  static BigUInt inv_mod(const BigUInt& a, const BigUInt& m);

  friend bool operator==(const BigUInt&, const BigUInt&) = default;
  friend std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b);

  [[nodiscard]] const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  void normalize();

  // Little-endian limbs; empty vector represents zero.
  std::vector<std::uint64_t> limbs_;
};

/// Sign-magnitude BigUInt (zero canonicalizes to non-negative through the
/// helpers below), for lattice determinants and cofactors.
struct SBig {
  BigUInt v;
  bool neg = false;

  [[nodiscard]] bool is_zero() const { return v.is_zero(); }
};

inline SBig sbig_add(const SBig& a, const SBig& b) {
  if (a.neg == b.neg) return {a.v + b.v, a.neg};
  if (a.v >= b.v) return {a.v - b.v, a.neg};
  return {b.v - a.v, b.neg};
}

inline SBig sbig_sub(const SBig& a, const SBig& b) {
  return sbig_add(a, {b.v, !b.neg});
}

inline SBig sbig_mul(const SBig& a, const SBig& b) {
  return {a.v * b.v, a.neg != b.neg};
}

/// Signed value mod n in [0, n).
inline BigUInt sbig_mod(const SBig& a, const BigUInt& n) {
  BigUInt m = a.v % n;
  if (a.neg && !m.is_zero()) m = n - m;
  return m;
}

}  // namespace ibbe::bigint

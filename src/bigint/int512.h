// Minimal signed 512-bit arithmetic on 8x64 limb arrays for the
// endomorphism scalar decompositions (ec/glv.cpp for G1, bigint/lattice4.cpp
// for G2 and Gt): the per-scalar Babai rounding works on mul_wide products,
// so it never allocates.
#pragma once

#include <array>
#include <cstdint>

#include "bigint/u256.h"

namespace ibbe::bigint {

using Limbs8 = std::array<std::uint64_t, 8>;

inline void add_bit_512(Limbs8& a, unsigned bit) {
  unsigned idx = bit / 64;
  std::uint64_t add = std::uint64_t{1} << (bit % 64);
  for (unsigned i = idx; i < 8 && add; ++i) {
    std::uint64_t s = a[i] + add;
    add = s < a[i] ? 1 : 0;
    a[i] = s;
  }
}

/// floor((a + 2^(shift-1)) / 2^shift) for products that fit well below
/// 2^(shift+256): round-to-nearest shift extraction.
inline U256 round_shift_512(Limbs8 a, unsigned shift) {
  add_bit_512(a, shift - 1);
  U256 out;
  unsigned idx = shift / 64, off = shift % 64;
  for (unsigned i = 0; i < 4; ++i) {
    std::uint64_t lo = idx + i < 8 ? a[idx + i] : 0;
    std::uint64_t hi = (off && idx + i + 1 < 8) ? a[idx + i + 1] : 0;
    out.limb[i] = off ? (lo >> off) | (hi << (64 - off)) : lo;
  }
  return out;
}

inline int cmp_512(const Limbs8& a, const Limbs8& b) {
  for (unsigned i = 8; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

inline Limbs8 add_512(const Limbs8& a, const Limbs8& b) {
  Limbs8 out;
  unsigned __int128 carry = 0;
  for (unsigned i = 0; i < 8; ++i) {
    carry += a[i];
    carry += b[i];
    out[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return out;
}

/// a - b; requires a >= b.
inline Limbs8 sub_512(const Limbs8& a, const Limbs8& b) {
  Limbs8 out;
  std::uint64_t borrow = 0;
  for (unsigned i = 0; i < 8; ++i) {
    std::uint64_t bi = b[i] + borrow;
    borrow = (bi < b[i]) || (a[i] < bi) ? 1 : 0;
    out[i] = a[i] - bi;
  }
  return out;
}

/// Sign-magnitude 512-bit integer (zero canonicalizes to non-negative).
struct S512 {
  Limbs8 mag{};
  bool neg = false;

  [[nodiscard]] bool is_zero() const {
    for (auto l : mag) {
      if (l) return false;
    }
    return true;
  }
};

inline S512 signed_add(const S512& a, const S512& b) {
  if (a.neg == b.neg) return {add_512(a.mag, b.mag), a.neg};
  int c = cmp_512(a.mag, b.mag);
  if (c == 0) return {};
  if (c > 0) return {sub_512(a.mag, b.mag), a.neg};
  return {sub_512(b.mag, a.mag), b.neg};
}

inline S512 signed_sub(const S512& a, const S512& b) {
  return signed_add(a, {b.mag, !b.neg});
}

inline S512 s512_from_u256(const U256& v, bool neg = false) {
  S512 out;
  for (unsigned i = 0; i < 4; ++i) out.mag[i] = v.limb[i];
  out.neg = neg;
  return out;
}

/// Magnitude as U256; false if it does not fit in 256 bits.
inline bool s512_to_u256(const S512& v, U256& out) {
  for (unsigned i = 4; i < 8; ++i) {
    if (v.mag[i]) return false;
  }
  for (unsigned i = 0; i < 4; ++i) out.limb[i] = v.mag[i];
  return true;
}

}  // namespace ibbe::bigint

// Scalar recodings shared by the generic curve template, the endomorphism
// ladder and comb (ec/endo.h) and the MSM engine: windowed non-adjacent form
// (wNAF), fixed-width windows, and the NAF of a compile-time constant.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/u256.h"

namespace ibbe::ec {

/// Signed-digit recoding: digits[i] is the coefficient of 2^i, each either
/// zero or odd with |d| < 2^(w-1), and any two non-zero digits at least w
/// positions apart. Trailing zeros are stripped (zero scalar -> empty).
inline std::vector<int> wnaf_digits(const bigint::U256& k, unsigned w) {
  // Work on a mutable bit array with headroom for the final carry.
  std::vector<std::uint8_t> bits(256 + w + 1, 0);
  for (unsigned i = 0; i < 256; ++i) bits[i] = k.bit(i) ? 1 : 0;
  std::vector<int> digits(bits.size(), 0);
  for (std::size_t i = 0; i < bits.size();) {
    if (bits[i] == 0) {
      ++i;
      continue;
    }
    int val = 0;
    for (unsigned j = 0; j < w && i + j < bits.size(); ++j) {
      val |= bits[i + j] << j;
    }
    int d = val;
    if (d >= (1 << (w - 1))) {
      d -= 1 << w;
      // Borrowed from the next window: propagate a carry upward.
      std::size_t pos = i + w;
      while (pos < bits.size() && bits[pos] == 1) bits[pos++] = 0;
      if (pos < bits.size()) bits[pos] = 1;
    }
    for (unsigned j = 0; j < w && i + j < bits.size(); ++j) bits[i + j] = 0;
    digits[i] = d;
    i += w;
  }
  while (!digits.empty() && digits.back() == 0) digits.pop_back();
  return digits;
}

/// Bits [lo, lo + width) of k as an unsigned value (width <= 32).
inline unsigned window_value(const bigint::U256& k, unsigned lo,
                             unsigned width) {
  if (lo >= 256) return 0;
  unsigned idx = lo / 64, off = lo % 64;
  std::uint64_t v = k.limb[idx] >> off;
  if (off + width > 64 && idx + 1 < 4) v |= k.limb[idx + 1] << (64 - off);
  return static_cast<unsigned>(v) & ((1u << width) - 1);
}

/// Signed NAF of a compile-time constant: the digits wnaf_digits(n, 2)
/// yields, least significant first, for the loops over fixed curve
/// parameters (the NAF of u for GT, of 6u + 2 for the Miller loop).
struct ConstNaf {
  std::array<std::int8_t, 128> digit{};
  std::size_t size = 0;
};

constexpr ConstNaf const_naf(unsigned __int128 n) {
  ConstNaf out;
  while (n != 0) {
    std::int8_t d = 0;
    if (n & 1) {
      d = (n & 3) == 3 ? -1 : 1;
      n = d < 0 ? n + 1 : n - 1;
    }
    out.digit[out.size++] = d;
    n >>= 1;
  }
  return out;
}

}  // namespace ibbe::ec

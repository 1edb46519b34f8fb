// Fixed-width 256-bit unsigned integers.
//
// This is the word size of every prime field in the project (BN254 base and
// scalar fields, P-256 base and order), so the hot-path arithmetic lives on a
// flat 4x64 representation with no allocation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace ibbe::bigint {

/// 256-bit unsigned integer, little-endian limbs.
struct U256 {
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  static constexpr U256 zero() { return U256{}; }
  static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }
  static constexpr U256 from_u64(std::uint64_t v) { return U256{{v, 0, 0, 0}}; }

  /// Parses big-endian hex (optionally "0x"-prefixed, at most 64 digits).
  static U256 from_hex(std::string_view hex);
  /// Big-endian byte parsing; input must be exactly 32 bytes.
  static U256 from_be_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] std::array<std::uint8_t, 32> to_be_bytes() const;

  [[nodiscard]] bool is_zero() const {
    return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
  }
  [[nodiscard]] bool bit(unsigned i) const {
    return (limb[i / 64] >> (i % 64)) & 1;
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] unsigned bit_length() const;
  [[nodiscard]] bool is_odd() const { return limb[0] & 1; }

  friend bool operator==(const U256&, const U256&) = default;
};

/// -1 / 0 / +1 three-way comparison.
int cmp(const U256& a, const U256& b);
inline bool operator<(const U256& a, const U256& b) { return cmp(a, b) < 0; }

/// out = a + b, returns the carry bit.
std::uint64_t add_with_carry(const U256& a, const U256& b, U256& out);
/// out = a - b, returns the borrow bit.
std::uint64_t sub_with_borrow(const U256& a, const U256& b, U256& out);

/// a >> s for 0 < s < 64.
inline U256 shr(const U256& a, unsigned s) {
  U256 out;
  for (unsigned i = 0; i < 4; ++i) {
    out.limb[i] = a.limb[i] >> s;
    if (i + 1 < 4) out.limb[i] |= a.limb[i + 1] << (64 - s);
  }
  return out;
}

/// Full 256x256 -> 512-bit product (little-endian 8 limbs).
std::array<std::uint64_t, 8> mul_wide(const U256& a, const U256& b);

/// a mod m by binary reduction; m must be non-zero. Setup-path helper.
U256 mod(const U256& a, const U256& m);

}  // namespace ibbe::bigint

#include "support/biguint.h"

#include <algorithm>
#include <stdexcept>

#include "util/hex.h"

namespace ibbe::bigint {

using u128 = unsigned __int128;

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty()) throw std::invalid_argument("BigUInt::from_hex: empty");
  // Pad to a whole number of bytes.
  std::string padded;
  if (hex.size() % 2 != 0) padded.push_back('0');
  padded.append(hex);
  return from_be_bytes(util::from_hex(padded));
}

BigUInt BigUInt::from_be_bytes(std::span<const std::uint8_t> bytes) {
  BigUInt out;
  for (std::uint8_t b : bytes) {
    out = (out << 8) + BigUInt(b);
  }
  return out;
}

BigUInt BigUInt::from_u256(const U256& v) {
  BigUInt out;
  out.limbs_.assign(v.limb.begin(), v.limb.end());
  out.normalize();
  return out;
}

U256 BigUInt::to_u256() const {
  if (limbs_.size() > 4) throw std::overflow_error("BigUInt::to_u256: too wide");
  U256 out;
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limb[i] = limbs_[i];
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  auto bytes = to_be_bytes();
  std::string hex = util::to_hex(bytes);
  auto first = hex.find_first_not_of('0');
  return hex.substr(first);
}

std::string BigUInt::to_dec() const {
  if (is_zero()) return "0";
  std::string digits;
  BigUInt ten(10);
  BigUInt cur = *this;
  while (!cur.is_zero()) {
    auto [q, r] = divmod(cur, ten);
    digits.push_back(static_cast<char>('0' + (r.is_zero() ? 0 : r.limbs_[0])));
    cur = std::move(q);
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

util::Bytes BigUInt::to_be_bytes() const {
  util::Bytes out;
  if (is_zero()) {
    out.push_back(0);
    return out;
  }
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(*it >> shift));
    }
  }
  // Strip leading zero bytes.
  auto first = std::find_if(out.begin(), out.end(), [](std::uint8_t b) { return b != 0; });
  out.erase(out.begin(), first);
  return out;
}

unsigned BigUInt::bit_length() const {
  if (is_zero()) return 0;
  return static_cast<unsigned>(64 * (limbs_.size() - 1) + 64 -
                               static_cast<unsigned>(__builtin_clzll(limbs_.back())));
}

bool BigUInt::bit(unsigned i) const {
  std::size_t word = i / 64;
  if (word >= limbs_.size()) return false;
  return (limbs_[word] >> (i % 64)) & 1;
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  out.limbs_[n] = static_cast<std::uint64_t>(carry);
  out.normalize();
  return out;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  if (a < b) throw std::underflow_error("BigUInt operator-: negative result");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  u128 borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 d = static_cast<u128>(a.limbs_[i]) - (i < b.limbs_.size() ? b.limbs_[i] : 0) -
             borrow;
    out.limbs_[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  out.normalize();
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

BigUInt operator<<(const BigUInt& a, unsigned shift) {
  if (a.is_zero()) return a;
  unsigned limb_shift = shift / 64;
  unsigned bit_shift = shift % 64;
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? a.limbs_[i] << bit_shift : a.limbs_[i];
    if (bit_shift) out.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigUInt operator>>(const BigUInt& a, unsigned shift) {
  unsigned limb_shift = shift / 64;
  unsigned bit_shift = shift % 64;
  if (limb_shift >= a.limbs_.size()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift ? a.limbs_[i + limb_shift] >> bit_shift
                              : a.limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size()) {
      out.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& a, const BigUInt& b) {
  if (b.is_zero()) throw std::domain_error("BigUInt divmod: division by zero");
  if (a < b) return {BigUInt{}, a};
  // Binary long division: clear and fast enough for setup-time operands.
  unsigned shift = a.bit_length() - b.bit_length();
  BigUInt remainder = a;
  BigUInt quotient;
  quotient.limbs_.assign(shift / 64 + 1, 0);
  BigUInt divisor = b << shift;
  for (unsigned s = shift + 1; s-- > 0;) {
    if (remainder >= divisor) {
      remainder = remainder - divisor;
      quotient.limbs_[s / 64] |= std::uint64_t{1} << (s % 64);
    }
    divisor = divisor >> 1;
  }
  quotient.normalize();
  return {std::move(quotient), std::move(remainder)};
}

BigUInt BigUInt::pow_mod(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("BigUInt pow_mod: zero modulus");
  BigUInt result(1);
  result = result % m;
  BigUInt b = base % m;
  for (unsigned i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

BigUInt BigUInt::inv_mod(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid on non-negative values, tracking coefficients of `a` only.
  // Invariants: r0 = s0*a (mod m), r1 = s1*a (mod m), with signs carried apart.
  BigUInt r0 = m, r1 = a % m;
  BigUInt s0(0), s1(1);
  bool s0_neg = false, s1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // s2 = s0 - q*s1 with explicit sign tracking.
    BigUInt qs1 = q * s1;
    BigUInt s2;
    bool s2_neg;
    if (s0_neg == s1_neg) {
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s0_neg = s1_neg;
    s1 = std::move(s2);
    s1_neg = s2_neg;
  }
  if (!(r0 == BigUInt(1))) {
    throw std::domain_error("BigUInt inv_mod: not invertible");
  }
  BigUInt inv = s0 % m;
  if (s0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

}  // namespace ibbe::bigint

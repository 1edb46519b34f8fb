#include "bigint/mont.h"

#include <stdexcept>

namespace ibbe::bigint {

MontgomeryCtx::MontgomeryCtx(const U256& modulus) : n_(modulus) {
  if (!modulus.is_odd() || modulus.bit_length() < 2) {
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 2");
  }
  // n0inv = -n^-1 mod 2^64 by Newton iteration (doubles correct bits each
  // round; 6 rounds cover 64 bits starting from 1 correct bit... start at 3
  // bits with the standard trick x = n works since n odd).
  std::uint64_t n0 = n_.limb[0];
  std::uint64_t x = n0;  // correct to 3 bits for odd n0? (x*n0 ≡ 1 mod 8)
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  n0inv_ = ~x + 1;  // negate mod 2^64

  // R = 2^256 mod n: 0 - n wraps to 2^256 - n, which reduces to R. Then
  // R^2 = 2^512 mod n by 256 modular doublings of R.
  U256 two256_minus_n;
  sub_with_borrow(U256::zero(), n_, two256_minus_n);
  r_ = mod(two256_minus_n, n_);
  r2_ = r_;
  for (int i = 0; i < 256; ++i) r2_ = add(r2_, r2_);
  sub_with_borrow(n_, U256::from_u64(2), n_minus_2_);
  n_sq_ = mul_wide(n_, n_);

  // The asm REDC's per-round carry fold requires the top modulus limb to
  // leave one unit of headroom (see mont_backend.h); every prime in the
  // project does.
  accel_ = backend::accelerated() && n_.limb[3] <= ~std::uint64_t{1};
}

U256 MontgomeryCtx::add(const U256& a, const U256& b) const {
  U256 sum;
  std::uint64_t carry = add_with_carry(a, b, sum);
  if (carry || cmp(sum, n_) >= 0) {
    U256 tmp;
    sub_with_borrow(sum, n_, tmp);
    return tmp;
  }
  return sum;
}

U256 MontgomeryCtx::sub(const U256& a, const U256& b) const {
  U256 diff;
  std::uint64_t borrow = sub_with_borrow(a, b, diff);
  if (borrow) {
    U256 tmp;
    add_with_carry(diff, n_, tmp);
    return tmp;
  }
  return diff;
}

U256 MontgomeryCtx::neg(const U256& a) const {
  if (a.is_zero()) return a;
  U256 out;
  sub_with_borrow(n_, a, out);
  return out;
}

U256 MontgomeryCtx::pow(const U256& base, const U256& exp) const {
  // 4-bit fixed window: ~bits/4 table multiplications instead of the ~bits/2
  // of plain square-and-multiply. This feeds every Fermat inversion in the
  // field layer, so all Fp/Fr/P-256 inversions (and therefore every affine
  // conversion) get the speedup.
  unsigned bits = exp.bit_length();
  if (bits == 0) return one();
  U256 table[16];
  table[0] = one();
  for (int i = 1; i < 16; ++i) table[i] = mul(table[i - 1], base);

  auto window = [&](unsigned lo) {
    unsigned w = 0;
    for (unsigned j = 4; j-- > 0;) {
      w <<= 1;
      if (lo + j < bits && exp.bit(lo + j)) w |= 1;
    }
    return w;
  };

  unsigned i = ((bits + 3) / 4) * 4;
  i -= 4;
  U256 result = table[window(i)];
  while (i != 0) {
    i -= 4;
    result = sqr(sqr(sqr(sqr(result))));
    unsigned w = window(i);
    if (w != 0) result = mul(result, table[w]);
  }
  return result;
}

U256 MontgomeryCtx::inv(const U256& a) const {
  if (a.is_zero()) throw std::domain_error("MontgomeryCtx::inv: zero");
  return pow(a, n_minus_2_);
}

}  // namespace ibbe::bigint

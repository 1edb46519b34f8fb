// Montgomery-form modular arithmetic for 256-bit odd moduli.
//
// One MontgomeryCtx exists per prime in the system (BN254 p and r, P-256 p
// and n). Residues are stored in Montgomery form; the field layer (src/field)
// wraps a context into a typed element class.
//
// Two APIs coexist:
//   * `mul`/`sqr` — fused multiply-and-reduce, the classical entry point.
//   * `mul_wide` + `redc` — the same operation split into its halves. The
//     lazy-reduction tower (field/lazy.h) accumulates several 512-bit
//     unreduced products (with `p_squared()` offsets keeping subtractions
//     non-negative) and pays ONE reduction per output coefficient instead of
//     one per product. `redc` accepts any value < 2^512 and returns the
//     canonical representative.
//
// Both halves dispatch at runtime between the portable C++ implementation
// and the x86-64 MULX/ADCX/ADOX backend (bigint/mont_backend.h); results are
// bit-identical either way.
#pragma once

#include "bigint/mont_backend.h"
#include "bigint/u256.h"
#include "bigint/u512.h"

namespace ibbe::bigint {

class MontgomeryCtx {
 public:
  /// `modulus` must be odd and > 2. Constants (R, R^2, -N^-1 mod 2^64, N^2)
  /// are derived here once.
  explicit MontgomeryCtx(const U256& modulus);

  [[nodiscard]] const U256& modulus() const { return n_; }
  /// 1 in Montgomery form (R mod N).
  [[nodiscard]] const U256& one() const { return r_; }
  /// N^2 as a 512-bit value: the offset the lazy-reduction layer adds before
  /// subtracting an unreduced product (any multiple of N is invisible to
  /// `redc` mod N).
  [[nodiscard]] const U512& p_squared() const { return n_sq_; }

  [[nodiscard]] U256 to_mont(const U256& a) const { return mul(a, r2_); }
  [[nodiscard]] U256 from_mont(const U256& a) const { return mul(a, U256::one()); }

  /// Montgomery product: out = a*b*R^-1 mod N. Aliasing out with a and/or b
  /// is fine (the backends read operands before the first store to out) —
  /// multiplication chains use this to update in place without a copy.
  void mul_into(const U256& a, const U256& b, U256& out) const {
#if IBBE_HAVE_MULX_ASM
    if (accel_) {
      backend::mont_mul_accel(out.limb.data(), a.limb.data(), b.limb.data(),
                              n_.limb.data(), n0inv_);
      return;
    }
#endif
    backend::mont_mul_portable(out.limb.data(), a.limb.data(), b.limb.data(),
                               n_.limb.data(), n0inv_);
  }
  [[nodiscard]] U256 mul(const U256& a, const U256& b) const {
    U256 out;
    mul_into(a, b, out);
    return out;
  }
  [[nodiscard]] U256 sqr(const U256& a) const { return mul(a, a); }

  /// Full 512-bit product of two residues (no reduction). Modulus-free; a
  /// static member so call sites read as part of this API.
  [[nodiscard]] static U512 mul_wide(const U256& a, const U256& b) {
    U512 out;
    backend::mul4(out.limb.data(), a.limb.data(), b.limb.data());
    return out;
  }

  /// Montgomery reduction of ANY t < 2^512: t*R^-1 mod N, canonical.
  [[nodiscard]] U256 redc(const U512& t) const {
    U256 out;
#if IBBE_HAVE_MULX_ASM
    if (accel_) {
      backend::redc_accel(out.limb.data(), t.limb.data(), n_.limb.data(),
                          n0inv_);
      return out;
    }
#endif
    backend::redc_portable(out.limb.data(), t.limb.data(), n_.limb.data(),
                           n0inv_);
    return out;
  }

  /// Plain modular add/sub/neg on residues (Montgomery form is closed under
  /// these).
  [[nodiscard]] U256 add(const U256& a, const U256& b) const;
  [[nodiscard]] U256 sub(const U256& a, const U256& b) const;
  [[nodiscard]] U256 neg(const U256& a) const;
  [[nodiscard]] U256 dbl(const U256& a) const { return add(a, a); }

  /// base^exp with base in Montgomery form; result in Montgomery form.
  /// 4-bit fixed-window ladder (this backs every Fermat inversion).
  [[nodiscard]] U256 pow(const U256& base, const U256& exp) const;

  /// Inverse of a non-zero residue (Fermat: a^(N-2)); modulus must be prime.
  [[nodiscard]] U256 inv(const U256& a) const;

 private:
  U256 n_;             // modulus
  U256 r_;             // 2^256 mod n
  U256 r2_;            // 2^512 mod n
  U512 n_sq_;          // n^2 (lazy-reduction offset)
  std::uint64_t n0inv_ = 0;  // -n^-1 mod 2^64
  U256 n_minus_2_;     // exponent for Fermat inversion
  bool accel_ = false;  // MULX/ADX backend usable for this modulus
};

}  // namespace ibbe::bigint

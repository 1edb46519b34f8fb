// Prime-field elements over the four 256-bit primes used in the project.
//
// `Fp256<Tag>` wraps a Montgomery residue with value semantics. The tag pins
// the modulus at the type level, so mixing elements of different fields is a
// compile error, not a runtime surprise:
//
//   Fp      — BN254 base field  (coordinates of G1, tower below Fp12)
//   Fr      — BN254 scalar field (exponents; IBBE's Z_p^* of the paper)
//   P256Fp  — NIST P-256 base field (classical PKI substrate)
//   P256Fr  — NIST P-256 group order (ECDSA scalars)
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/mont.h"
#include "bigint/u256.h"

namespace ibbe::field {

struct BnBaseTag {
  static constexpr std::string_view name = "bn254.p";
  static constexpr std::string_view modulus_hex =
      "30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47";
};

struct BnScalarTag {
  static constexpr std::string_view name = "bn254.r";
  static constexpr std::string_view modulus_hex =
      "30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001";
};

struct P256BaseTag {
  static constexpr std::string_view name = "p256.p";
  static constexpr std::string_view modulus_hex =
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
};

struct P256ScalarTag {
  static constexpr std::string_view name = "p256.n";
  static constexpr std::string_view modulus_hex =
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
};

template <typename Tag>
class Fp256 {
 public:
  using U256 = bigint::U256;

  /// Read off the modulus literal's last hex digit (p mod 16).
  static constexpr bool modulus_is_3_mod_4() {
    const char c = Tag::modulus_hex.back();
    const int low = c >= 'a'   ? c - 'a' + 10
                    : c >= 'A' ? c - 'A' + 10
                               : c - '0';
    return low % 4 == 3;
  }

  /// Zero element.
  constexpr Fp256() = default;

  // __attribute__((const)) is sound here — the function always returns the
  // same reference — and lets the compiler hoist the magic-static guard
  // check out of multiplication-chain loops.
#if defined(__GNUC__)
  __attribute__((const))
#endif
  static const bigint::MontgomeryCtx& ctx() {
    static const bigint::MontgomeryCtx instance(
        U256::from_hex(Tag::modulus_hex));
    return instance;
  }
  static const U256& modulus() { return ctx().modulus(); }

  static Fp256 zero() { return {}; }
  static Fp256 one() { return from_mont(ctx().one()); }

  /// From a canonical (non-Montgomery) value; must be < modulus.
  static Fp256 from_u256(const U256& v) {
    if (bigint::cmp(v, modulus()) >= 0) {
      throw std::invalid_argument(std::string(Tag::name) +
                                  ": value not reduced");
    }
    return from_mont(ctx().to_mont(v));
  }
  /// From an arbitrary 256-bit value, reduced mod the field prime.
  static Fp256 from_u256_reduce(const U256& v) {
    return from_mont(ctx().to_mont(bigint::mod(v, modulus())));
  }
  static Fp256 from_u64(std::uint64_t v) {
    return from_u256_reduce(U256::from_u64(v));
  }
  static Fp256 from_hex(std::string_view hex) {
    return from_u256(U256::from_hex(hex));
  }
  /// 32 big-endian bytes, reduced mod the prime (used by hash-to-field).
  static Fp256 from_be_bytes_reduce(std::span<const std::uint8_t> b32) {
    return from_u256_reduce(U256::from_be_bytes(b32));
  }

  [[nodiscard]] U256 to_u256() const { return ctx().from_mont(v_); }
  [[nodiscard]] std::array<std::uint8_t, 32> to_be_bytes() const {
    return to_u256().to_be_bytes();
  }
  [[nodiscard]] std::string to_hex() const { return to_u256().to_hex(); }

  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
  [[nodiscard]] bool is_one() const { return v_ == ctx().one(); }

  friend Fp256 operator+(const Fp256& a, const Fp256& b) {
    return from_mont(ctx().add(a.v_, b.v_));
  }
  friend Fp256 operator-(const Fp256& a, const Fp256& b) {
    return from_mont(ctx().sub(a.v_, b.v_));
  }
  friend Fp256 operator*(const Fp256& a, const Fp256& b) {
    return from_mont(ctx().mul(a.v_, b.v_));
  }
  Fp256& operator+=(const Fp256& o) { return *this = *this + o; }
  Fp256& operator-=(const Fp256& o) { return *this = *this - o; }
  Fp256& operator*=(const Fp256& o) {
    ctx().mul_into(v_, o.v_, v_);  // in-place: no result copy
    return *this;
  }

  [[nodiscard]] Fp256 neg() const { return from_mont(ctx().neg(v_)); }
  [[nodiscard]] Fp256 square() const { return from_mont(ctx().sqr(v_)); }
  [[nodiscard]] Fp256 dbl() const { return from_mont(ctx().add(v_, v_)); }
  /// Fermat inversion; throws std::domain_error on zero.
  [[nodiscard]] Fp256 inverse() const { return from_mont(ctx().inv(v_)); }

  [[nodiscard]] Fp256 pow(const U256& e) const {
    return from_mont(ctx().pow(v_, e));
  }

  /// Square root a^((p+1)/4), which is correct only for p = 3 (mod 4): the
  /// two base fields (BN254 p, P-256 p). The group orders BN254 r and P-256
  /// n are 1 (mod 4), so the clause keeps Fr::sqrt and P256Fr::sqrt from
  /// compiling. std::nullopt if `a` is not a quadratic residue.
  [[nodiscard]] std::optional<Fp256> sqrt() const
    requires(modulus_is_3_mod_4())
  {
    U256 p_plus_1;  // no carry: none of the four primes is 2^256 - 1
    bigint::add_with_carry(modulus(), U256::one(), p_plus_1);
    Fp256 candidate = pow(bigint::shr(p_plus_1, 2));
    if (candidate.square() == *this) return candidate;
    return std::nullopt;
  }

  /// Parity of the canonical representative; used for point compression.
  [[nodiscard]] bool is_odd() const { return to_u256().is_odd(); }

  /// The raw Montgomery residue and its unchecked inverse. These exist for
  /// the lazy-reduction tower (field/lazy.h), which multiplies and
  /// accumulates residues in 512-bit unreduced form and re-wraps the REDC
  /// output; `v` must be a canonical residue (< modulus, Montgomery form).
  [[nodiscard]] const U256& mont_repr() const { return v_; }
  static constexpr Fp256 from_mont_unchecked(const U256& v) {
    return from_mont(v);
  }

  friend bool operator==(const Fp256&, const Fp256&) = default;

 private:
  static constexpr Fp256 from_mont(const U256& v) {
    Fp256 out;
    out.v_ = v;
    return out;
  }

  U256 v_{};  // Montgomery form
};

using Fp = Fp256<BnBaseTag>;
using Fr = Fp256<BnScalarTag>;
using P256Fp = Fp256<P256BaseTag>;
using P256Fr = Fp256<P256ScalarTag>;

/// Montgomery's simultaneous-inversion trick: replaces every element of `xs`
/// by its inverse at the cost of ONE field inversion plus 3(n-1)
/// multiplications. Works for any field-like type with operator* and a
/// throwing inverse() (Fp256, Fp2, Fp12, ...); throws std::domain_error if
/// any element is zero, leaving `xs` unspecified.
template <typename F>
void batch_inverse(std::span<F> xs) {
  if (xs.empty()) return;
  // Prefix products, one inversion of the total, then peel the suffix off.
  std::vector<F> prefix(xs.size());
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) prefix[i] = prefix[i - 1] * xs[i];
  F inv = prefix.back().inverse();
  for (std::size_t i = xs.size(); i-- > 1;) {
    F xi_inv = inv * prefix[i - 1];
    inv = inv * xs[i];
    xs[i] = xi_inv;
  }
  xs[0] = inv;
}

}  // namespace ibbe::field

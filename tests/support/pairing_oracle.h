// Reference oracles for the pairing: the affine Miller loop and the naive
// final exponentiation, plus a generic big-exponent power. Each follows the
// textbook definition with arbitrary-precision exponents, so the library's
// projective Miller loop, u-decomposed hard part and U256-only field powers
// are checked against code that shares none of their shortcuts.
#pragma once

#include "ec/curves.h"
#include "field/fp12.h"
#include "support/biguint.h"

namespace ibbe::pairing {

/// Optimal-ate loop length 6u + 2 (65 bits).
const bigint::BigUInt& ate_loop_count();

/// Hard-part exponent (p^4 - p^2 + 1)/r. The exact divisibility doubles as
/// a consistency check on the curve constants (throws if r does not divide).
const bigint::BigUInt& hard_exponent();

/// Miller loop in affine coordinates (one Fp2 inversion per step) over the
/// binary digits of 6u + 2; the oracle for the projective implementation.
field::Fp12 miller_loop_affine(const ec::G1& p, const ec::G2& q);

/// x^e by plain square-and-multiply with cyclotomic squarings (x must lie in
/// the cyclotomic subgroup).
field::Fp12 pow_cyclotomic_big(const field::Fp12& x, const bigint::BigUInt& e);

/// Easy part f^((p^6 - 1)(p^2 + 1)), then the hard part by naive
/// exponentiation to hard_exponent().
field::Fp12 final_exponentiation_naive(const field::Fp12& f);

}  // namespace ibbe::pairing

namespace ibbe::testutil {

/// x^e by square-and-multiply for any field type with one(), square() and *.
template <typename F>
F pow_big(const F& x, const bigint::BigUInt& e) {
  F result = F::one();
  for (unsigned i = e.bit_length(); i-- > 0;) {
    result = result.square();
    if (e.bit(i)) result = result * x;
  }
  return result;
}

}  // namespace ibbe::testutil

// Shared RNG / sample-scalar / sample-point helpers for the test suites.
//
// Before this header every suite carried its own copy of the same four
// helpers (a seeded mt19937_64, random_u256, random_fr, and a
// generator-times-random sample point); the differential strategy tests
// made the duplication untenable. Everything here is deterministic — one
// fixed seed per test binary — so failures reproduce.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "field/fields.h"
#include "field/fp12.h"
#include "pairing/pairing.h"
#include "support/biguint.h"

namespace ibbe::testutil {

/// The BN254 curve parameter u = 4965661367192848881, pinned independently
/// of the library so edge scalars don't inherit a library transcription bug.
inline constexpr std::uint64_t kBnU = 0x44e992b44a6909f1ULL;

/// `prefix` followed by the decimal `n` ("u17"). Built by appending: GCC 12
/// reports a false -Wrestrict on `"u" + std::to_string(n)`.
inline std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Member identities u<offset> .. u<offset + n - 1>.
inline std::vector<std::string> make_users(std::size_t n,
                                           std::size_t offset = 0) {
  std::vector<std::string> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) users.push_back(numbered("u", offset + i));
  return users;
}

/// Process-wide deterministic RNG.
inline std::mt19937_64& rng() {
  static std::mt19937_64 gen(42);
  return gen;
}

inline bigint::U256 random_u256() {
  bigint::U256 v;
  for (auto& limb : v.limb) limb = rng()();
  return v;
}

inline field::Fr random_fr() {
  return field::Fr::from_u256_reduce(random_u256());
}

inline field::Fr random_nonzero_fr() {
  field::Fr k = random_fr();
  return k.is_zero() ? field::Fr::one() : k;
}

/// Random subgroup points (uniform up to the negligible bias of a 256-bit
/// scalar mod r), via the endomorphism-free double-and-add oracle so the
/// sample itself cannot depend on the machinery under test.
inline ec::G1 random_g1() {
  return ec::G1::generator().scalar_mul(random_u256());
}

inline ec::G2 random_g2() {
  return ec::G2::generator().scalar_mul(random_u256());
}

/// A random order-r element of GT: e(aG1, bG2) for random nonzero a, b.
inline field::Fp12 random_gt() {
  return ibbe::pairing::pairing(ec::G1::generator().mul(random_nonzero_fr()),
                                ec::G2::generator().mul(random_nonzero_fr()))
      .value();
}

/// #E'(Fp2) / r = 2p - r for the BN254 D-twist: the cofactor of G2.
inline bigint::BigUInt twist_cofactor() {
  using bigint::BigUInt;
  const BigUInt p = BigUInt::from_u256(field::Fp::modulus());
  const BigUInt r = BigUInt::from_u256(field::Fr::modulus());
  return p + p - r;
}

/// The first `count` twist points with x = (0, 1), (0, 2), ... (even y),
/// decoded WITHOUT the subgroup check. The cofactor is a 254-bit number, so
/// each lies outside G2 with overwhelming probability; callers that need
/// that check it with the r-multiply oracle.
inline std::vector<ec::G2> unchecked_twist_points(std::size_t count) {
  std::vector<std::uint8_t> encoding(ec::g2_serialized_size, 0);
  encoding[0] = 0x02;
  std::vector<ec::G2> out;
  for (std::uint8_t x = 1; out.size() < count && x != 0; ++x) {
    encoding[ec::g2_serialized_size - 1] = x;
    try {
      out.push_back(ec::g2_from_bytes(encoding, /*subgroup_check=*/false));
    } catch (const util::DeserializeError&) {
      // x^3 + b' is not a square: no twist point with this x
    }
  }
  return out;
}

/// Edge-case scalars for scalar-multiplication and decomposition tests:
/// 0, 1, 2, the group-order neighborhood r-1 / r / r+1, the curve parameter
/// u and the psi/Frobenius eigenvalue mu = 6u^2 with its neighbors, the
/// lattice-basis-norm boundaries (the 4-dim psi basis entries are +-u,
/// +-(u+1), +-2u, +-(2u+1); their column l1-norm is 6u+2, and the Babai
/// rounding flips at half-norm multiples), powers of mu (so a single
/// sub-scalar exercises each basis dimension), floor(r/2) and its
/// neighbor (the rounding midpoint), and the all-ones 2^256 - 1.
inline std::vector<bigint::U256> edge_scalars() {
  using bigint::BigUInt;
  using bigint::U256;
  const BigUInt r = BigUInt::from_u256(field::Fr::modulus());
  const BigUInt u(kBnU);
  const BigUInt mu = BigUInt(6) * u * u;

  std::vector<BigUInt> big{
      BigUInt(0),
      BigUInt(1),
      BigUInt(2),
      r - BigUInt(1),
      r,
      r + BigUInt(1),
      u,
      u - BigUInt(1),
      u + BigUInt(1),
      BigUInt(2) * u,
      BigUInt(2) * u + BigUInt(1),
      BigUInt(6) * u + BigUInt(2),              // basis column l1-norm
      (BigUInt(6) * u + BigUInt(2)) / BigUInt(2),  // half-norm boundary
      mu - BigUInt(1),
      mu,
      mu + BigUInt(1),
      mu * mu % r,
      mu * mu % r * mu % r,
      r / BigUInt(2),
      r / BigUInt(2) + BigUInt(1),
  };
  std::vector<U256> out;
  out.reserve(big.size() + 1);
  for (const auto& b : big) out.push_back(b.to_u256());
  out.push_back(U256{{~0ull, ~0ull, ~0ull, ~0ull}});
  return out;
}

}  // namespace ibbe::testutil

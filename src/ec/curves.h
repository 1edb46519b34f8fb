// Concrete curve instantiations (BN254 G1/G2, NIST P-256), compressed-point
// serialization, and hash-to-curve for G1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "ec/curve.h"
#include "field/fp2.h"
#include "field/fields.h"
#include "util/bytes.h"

namespace ibbe::ec {

/// The BN254 curve parameter u = 4965661367192848881 (63 bits, positive):
/// the endomorphism lattices, the Miller loop length 6u + 2 and the final
/// exponentiation's hard part are all built from it.
inline constexpr std::uint64_t kBnU = 0x44e992b44a6909f1ULL;

struct G1Params {
  using Field = field::Fp;
  static const Field& a();
  static bool a_is_zero() { return true; }
  static const Field& b();       // 3
  static const Field& gen_x();   // 1
  static const Field& gen_y();   // 2
};

struct G2Params {
  using Field = field::Fp2;
  static const Field& a();
  static bool a_is_zero() { return true; }
  static const Field& b();       // 3 / xi (D-type twist)
  static const Field& gen_x();
  static const Field& gen_y();
};

struct P256Params {
  using Field = field::P256Fp;
  static const Field& a();       // -3
  static bool a_is_zero() { return false; }
  static const Field& b();
  static const Field& gen_x();
  static const Field& gen_y();
};

using G1 = JacobianPoint<G1Params>;
using G2 = JacobianPoint<G2Params>;
using P256Point = JacobianPoint<P256Params>;

// Fast-path routing for scalar-times-group-element (defined in msm.cpp;
// declared here so every translation unit that multiplies picks them up):
// generator multiplications use one fixed-base ec::Comb per group, other G1
// and G2 points the endomorphism ladder ec::endo_pow (GLV over phi, the
// 4-dim psi split; ec/endo.h), and other P-256 points wNAF. The generic
// scalar_mul/scalar_mul_wnaf remain available as endomorphism-free oracles.
template <>
template <>
JacobianPoint<G1Params> JacobianPoint<G1Params>::mul(const field::Fr& k) const;
template <>
template <>
JacobianPoint<G2Params> JacobianPoint<G2Params>::mul(const field::Fr& k) const;
template <>
template <>
JacobianPoint<P256Params> JacobianPoint<P256Params>::mul(
    const field::P256Fr& k) const;

// --------------------------------------------------------------------------
// Compressed serialization.
//
// G1 / P256: 33 bytes = flag || x. Flag: 0x00 infinity (x all-zero),
//            0x02 even y, 0x03 odd y.
// G2:        65 bytes = flag || x.c0 || x.c1, same flag convention with the
//            Fp2 "parity" defined in Fp2::is_odd().

constexpr std::size_t g1_serialized_size = 33;
constexpr std::size_t g2_serialized_size = 65;
constexpr std::size_t p256_serialized_size = 33;

util::Bytes g1_to_bytes(const G1& p);
/// Throws util::DeserializeError on malformed input or off-curve points.
G1 g1_from_bytes(std::span<const std::uint8_t> data);

util::Bytes g2_to_bytes(const G2& p);
/// `subgroup_check` additionally verifies that the point lies in the order-r
/// subgroup G2 (the twist has composite order, so untrusted inputs should
/// keep it on), by the psi test of ec::g2_in_subgroup (ec/glv.h).
G2 g2_from_bytes(std::span<const std::uint8_t> data, bool subgroup_check = true);

/// The same encodings for points already in affine form (e.g. one
/// batch_to_affine over many points), written into `out`, which must be
/// exactly g1_serialized_size / g2_serialized_size bytes. The Jacobian
/// overloads above are to_affine plus this encoder.
void g1_affine_to_bytes(const AffinePt<field::Fp>& p,
                        std::span<std::uint8_t> out);
void g2_affine_to_bytes(const AffinePt<field::Fp2>& p,
                        std::span<std::uint8_t> out);

util::Bytes p256_to_bytes(const P256Point& p);
P256Point p256_from_bytes(std::span<const std::uint8_t> data);

// --------------------------------------------------------------------------
/// Hash-to-G1 by try-and-increment over SHA-256(msg || counter). G1 has
/// cofactor 1 on BN curves, so no cofactor clearing is required. Used by the
/// Boneh–Franklin HE-IBE baseline.
G1 hash_to_g1(std::string_view msg);

}  // namespace ibbe::ec

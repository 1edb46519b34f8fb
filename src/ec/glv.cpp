#include "ec/glv.h"

#include <stdexcept>

#include "bigint/int512.h"
#include "field/fields.h"
#include "field/tower_consts.h"

namespace ibbe::ec {

using bigint::U256;
using field::Fp;
using field::Fp2;
using field::Fr;

namespace {

// The per-scalar decomposition works on 8-limb products from mul_wide via
// the shared bigint/int512.h toolkit so it never allocates.
using bigint::round_shift_512;
using bigint::S512;
using bigint::signed_sub;
using bigint::s512_from_u256;
using bigint::s512_to_u256;

constexpr unsigned __int128 kU = kBnU;

constexpr U256 u256_of(unsigned __int128 v) {
  return U256{{static_cast<std::uint64_t>(v),
               static_cast<std::uint64_t>(v >> 64), 0, 0}};
}

// ----------------------------------------------------------------- G1 GLV

// The short basis is the classic BN one (Gallant-Lambert-Vanstone, CRYPTO
// 2001, reduced by extended Euclid on (r, lambda)):
//   v1 = (6u^2 + 2u, -(2u + 1)),  v2 = (2u + 1, 6u^2 + 4u + 1).
constexpr GlvConstants kGlv{
    // beta in Montgomery form (beta 2^256 mod p).
    Fp::from_mont_unchecked({{0x3350c88e13e80b9cULL, 0x7dce557cdb5e56b9ULL,
                              0x6001b4b8b615564aULL, 0x2682e617020217e0ULL}}),
    {{0xb8ca0b2d36636f23ULL, 0xcc37a73fec2bc5e9ULL, 0x048b6e193fd84104ULL,
      0x30644e72e131a029ULL}},
    u256_of(6 * kU * kU + 2 * kU),
    u256_of(2 * kU + 1),
    u256_of(2 * kU + 1),
    u256_of(6 * kU * kU + 4 * kU + 1),
    {{0x94e63f40c03fd959ULL, 0x9333bc0529dcf4b4ULL, 0, 0}},
    {{0xb64748cbb1f82cf6ULL, 0, 0, 0}},
};

bigint::Decomp<2> glv_split(const U256& k) {
  // c1 = round(k b2 / r) and c2 = round(k b1 / r) via the reciprocals;
  // (k0, k1) = (k, 0) - c1 v1 - c2 v2, i.e.
  //   k0 = k - c1 a1 - c2 a2,   k1 = c1 b1 - c2 b2.
  U256 c1 = round_shift_512(bigint::mul_wide(k, kGlv.g1), 254);
  U256 c2 = round_shift_512(bigint::mul_wide(k, kGlv.g2), 254);
  S512 s_k0 = signed_sub(
      signed_sub(s512_from_u256(k), S512{bigint::mul_wide(c1, kGlv.a1), false}),
      S512{bigint::mul_wide(c2, kGlv.a2), false});
  S512 s_k1 = signed_sub(S512{bigint::mul_wide(c1, kGlv.b1), false},
                         S512{bigint::mul_wide(c2, kGlv.b2), false});
  bigint::Decomp<2> d;
  if (!s512_to_u256(s_k0, d.k[0]) || !s512_to_u256(s_k1, d.k[1])) {
    throw std::logic_error("glv: decomposition out of range");
  }
  d.neg = {s_k0.neg, s_k1.neg};
  return d;
}

// ----------------------------------------------------------- G2 4-dim GLS

constexpr std::uint64_t U = kBnU;

/// LLL-reduced basis of {(a0..a3) : sum a_i (6u^2)^i = 0 mod r}; every entry
/// is pinned by the curve parameter, determinant -r. ghat and csign are the
/// Babai reciprocals and coefficient signs of bigint/lattice4.h.
constexpr bigint::Lattice4 kPsiLattice{
    u256_of(6 * kU * kU),
    {{
        {{{2 * U, false}, {U + 1, false}, {U, true}, {U, false}}},
        {{{U, true}, {U, false}, {U, true}, {2 * U + 1, true}}},
        {{{U + 1, false}, {U, false}, {U, false}, {2 * U, true}}},
        {{{2 * U + 1, false}, {U, true}, {U + 1, true}, {U, true}}},
    }},
    {{
        {{0x46f4bda995d51bb1ULL, 0x08e5da66fc7184aeULL, 0x9e80318ab0d92b93ULL,
          0}},
        {{0x2dff291532e42728ULL, 0x55b4ca7ba3e5577fULL, 0x9e80318ab0d92b95ULL,
          0}},
        {{0x071c4c43fac4db00ULL, 0x55b4ca7ba3e55782ULL, 0x9e80318ab0d92b95ULL,
          0}},
        {{0xc170977dcef3cd3fULL, 0x55b4ca7ba3e5577dULL, 0x9e80318ab0d92b95ULL,
          0}},
    }},
    {false, true, false, false},
    /*max_sub_bits=*/72,
};

U256 reduce_mod_r(const U256& k) {
  if (bigint::cmp(k, Fr::modulus()) < 0) return k;
  return bigint::mod(k, Fr::modulus());
}

}  // namespace

const GlvConstants& glv_constants() { return kGlv; }

G1 apply_phi(const G1& p) {
  if (p.is_infinity()) return p;
  return G1::from_jacobian(p.jac_x() * kGlv.beta, p.jac_y(), p.jac_z());
}

G2 apply_psi(const G2& p) {
  if (p.is_infinity()) return p;
  const auto& g = field::kFrobeniusGamma;
  return G2::from_jacobian(p.jac_x().conjugate() * g[1],
                           p.jac_y().conjugate() * g[2],
                           p.jac_z().conjugate());
}

AffinePt<Fp2> apply_psi(const AffinePt<Fp2>& p) {
  if (p.inf) return p;
  const auto& g = field::kFrobeniusGamma;
  return {p.x.conjugate() * g[1], p.y.conjugate() * g[2], false};
}

bool g2_in_subgroup(const G2& q) {
  // Completeness: on G2, psi = [mu] with mu = 6u^2, and row 2 of
  // kPsiLattice says (u+1) + u mu + u mu^2 - 2u mu^3 = 0 (mod r), so every
  // Q in G2 passes. Soundness: psi satisfies X^2 - tX + p = 0 on the whole
  // twist, so the test endomorphism alpha reduces to a + b psi with norm
  // N = a^2 + abt + b^2 p. A non-trivial cofactor component of Q in
  // ker(alpha) would need a prime factor of h2 = #E'(Fp2)/r = 2p - r to
  // divide #ker(alpha), which divides deg(alpha) = N. gcd(N, h2) = 1 for
  // BN254, so only G2 passes (the norm criterion of Dai, Lin, Zhao and
  // Zhou, "Fast subgroup membership testings for G1, G2 and GT on
  // pairing-friendly curves", ePrint 2022/348).
  // tests/curve_constants_test.cpp recomputes N and the gcd.
  const G2 uq = q.scalar_mul_wnaf(U256::from_u64(kBnU));
  const G2 lhs = q + uq + apply_psi(uq + apply_psi(uq));
  const G2 rhs = apply_psi(apply_psi(apply_psi(uq.dbl())));
  return lhs == rhs;
}

bigint::Decomp<2> G1Ops::decompose(const U256& k) {
  return glv_split(reduce_mod_r(k));
}

const bigint::Lattice4& bn_psi_lattice() { return kPsiLattice; }

bigint::Decomp4 G2Ops::decompose(const U256& k) {
  return kPsiLattice.decompose(reduce_mod_r(k));
}

}  // namespace ibbe::ec

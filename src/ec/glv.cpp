#include "ec/glv.h"

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/biguint.h"
#include "bigint/int512.h"
#include "ec/wnaf.h"
#include "field/fields.h"
#include "field/tower_consts.h"

namespace ibbe::ec {

using bigint::BigUInt;
using bigint::U256;
using field::Fp;
using field::Fp2;
using field::Fr;

namespace {

// The per-scalar decomposition works on 8-limb products from mul_wide via
// the shared bigint/int512.h toolkit so it never allocates; BigUInt appears
// on the derivation (init) path only.
using bigint::round_shift_512;
using bigint::S512;
using bigint::signed_add;
using bigint::signed_sub;
using bigint::s512_from_u256;
using bigint::s512_to_u256;

// Init-time signed BigUInt arithmetic also comes from the shared toolkit.
using SB = bigint::SBig;
using bigint::sbig_sub;

/// (a + b * eig) mod n, all signed inputs with |.| arbitrary.
BigUInt eval_mod(const BigUInt& a_mag, bool a_neg, const BigUInt& b_mag,
                 bool b_neg, const BigUInt& eig, const BigUInt& n) {
  BigUInt am = a_mag % n;
  if (a_neg && !am.is_zero()) am = n - am;
  BigUInt bm = (b_mag % n) * eig % n;
  if (b_neg && !bm.is_zero()) bm = n - bm;
  return (am + bm) % n;
}

/// Smallest non-trivial cube root of unity in the field, via g^((q-1)/3)
/// for ascending small g. Throws if the field has none (q != 1 mod 3).
template <typename Field>
Field cube_root_of_unity() {
  BigUInt q = BigUInt::from_u256(Field::modulus());
  auto [e, rem] = BigUInt::divmod(q - BigUInt(1), BigUInt(3));
  if (!rem.is_zero()) {
    throw std::logic_error("glv: field order is not 1 mod 3");
  }
  U256 exp = e.to_u256();
  for (std::uint64_t g = 2; g < 64; ++g) {
    Field c = Field::from_u64(g).pow(exp);
    if (!c.is_one()) return c;
  }
  throw std::logic_error("glv: no cube root of unity found");
}

// ----------------------------------------------------------------- G1 GLV

struct GlvCtx {
  Fp beta;          // phi(x, y) = (beta x, y)
  U256 lambda;      // phi = [lambda] on G1
  // Lattice basis of {(a, b) : a + b lambda = 0 mod r}: v1 = (a1, b1),
  // v2 = (a2, b2). The a_i are positive by construction (Euclidean
  // remainders); the b_i carry signs.
  U256 a1, a2, b1, b2;
  bool b1_neg = false, b2_neg = false;
  // Barrett-style rounding constants: c1 = round(k |b2| / r) and
  // c2 = round(k |b1| / r) computed as ((k * g_i) + 2^253) >> 254 with
  // g_i = round((|b_i| << 254) / r).
  U256 g1c, g2c;
  bool c1_neg = false, c2_neg = false;  // signs of c1, c2 for k >= 0

  GlvCtx() {
    const BigUInt n = BigUInt::from_u256(Fr::modulus());

    beta = cube_root_of_unity<Fp>();
    Fr lr = cube_root_of_unity<Fr>();
    // Pair the Fr root with beta: phi must act as [lambda] on G1.
    const G1 g = G1::generator();
    const G1 phi_g =
        G1::from_jacobian(g.jac_x() * beta, g.jac_y(), g.jac_z());
    if (g.scalar_mul(lr.to_u256()) != phi_g) {
      lr = lr * lr;  // the other primitive root
      if (g.scalar_mul(lr.to_u256()) != phi_g) {
        throw std::logic_error("glv: no cube root matches the endomorphism");
      }
    }
    lambda = lr.to_u256();

    // Extended Euclid on (r, lambda): remainders r_i = s_i r + t_i lambda.
    // Stop at the first remainder below sqrt(r); the surrounding rows give
    // the classic GLV short basis (Gallant-Lambert-Vanstone, CRYPTO 2001).
    BigUInt r0 = n, r1 = BigUInt::from_u256(lambda);
    SB t0{BigUInt(0), false}, t1{BigUInt(1), false};
    while (r1 * r1 >= n) {
      auto [q, r2] = BigUInt::divmod(r0, r1);
      SB t2 = sbig_sub(t0, {q * t1.v, t1.neg});
      r0 = std::move(r1);
      r1 = std::move(r2);
      t0 = std::move(t1);
      t1 = std::move(t2);
    }
    // v1 = (r_{l+1}, -t_{l+1}); v2 = shorter of (r_l, -t_l), (r_{l+2}, -t_{l+2}).
    auto [q, r2] = BigUInt::divmod(r0, r1);
    SB t2 = sbig_sub(t0, {q * t1.v, t1.neg});
    BigUInt va = r1;
    SB vb{t1.v, !t1.neg};
    BigUInt wa = r0;
    SB wb{t0.v, !t0.neg};
    if (r2 * r2 + t2.v * t2.v < wa * wa + wb.v * wb.v) {
      wa = r2;
      wb = {t2.v, !t2.neg};
    }
    for (const auto* p : {&va, &wa}) {
      const SB& b = p == &va ? vb : wb;
      if (!eval_mod(*p, false, b.v, b.neg, BigUInt::from_u256(lambda), n)
               .is_zero() ||
          p->bit_length() > 140 || b.v.bit_length() > 140) {
        throw std::logic_error("glv: lattice basis derivation failed");
      }
    }
    a1 = va.to_u256();
    b1 = vb.v.to_u256();
    b1_neg = vb.neg;
    a2 = wa.to_u256();
    b2 = wb.v.to_u256();
    b2_neg = wb.neg;

    // (k, 0) = (k b2 / det) v1 - (k b1 / det) v2 with det = a1 b2 - a2 b1
    // = +-r, so the rounding signs depend on the determinant's sign.
    SB det = sbig_sub({BigUInt::from_u256(a1) * BigUInt::from_u256(b2), b2_neg},
                    {BigUInt::from_u256(a2) * BigUInt::from_u256(b1), b1_neg});
    if (det.v != n) {
      throw std::logic_error("glv: basis determinant is not +-r");
    }
    auto barrett = [&](const U256& b_mag) {
      auto [quo, rem] =
          BigUInt::divmod(BigUInt::from_u256(b_mag) << 254, n);
      if (rem + rem >= n) quo = quo + BigUInt(1);
      return quo.to_u256();
    };
    g1c = barrett(b2);
    c1_neg = det.neg ? !b2_neg : b2_neg;
    g2c = barrett(b1);
    c2_neg = det.neg ? b1_neg : !b1_neg;

    // End-to-end self-check: decompose a few scalars and confirm both
    // k0 + k1 * lambda == k (mod r) and that the halves are short.
    for (const U256& k :
         {U256::one(), U256::from_u64(0xdeadbeefcafef00dULL),
          bigint::mod(U256{{~0ull, ~0ull, ~0ull, ~0ull}}, Fr::modulus())}) {
      EndoDecomp d = decompose(k);
      BigUInt lhs = eval_mod(BigUInt::from_u256(d.k0), d.neg0,
                             BigUInt::from_u256(d.k1), d.neg1,
                             BigUInt::from_u256(lambda), n);
      if (lhs != BigUInt::from_u256(k) % n || d.k0.bit_length() > 132 ||
          d.k1.bit_length() > 132) {
        throw std::logic_error("glv: decomposition self-check failed");
      }
    }
  }

  [[nodiscard]] EndoDecomp decompose(const U256& k) const {
    // c_i = round(k |b_j| / r) via the precomputed reciprocals.
    U256 c1 = round_shift_512(bigint::mul_wide(k, g1c), 254);
    U256 c2 = round_shift_512(bigint::mul_wide(k, g2c), 254);
    // k0 = k - c1 a1 - c2 a2 ; k1 = -(c1 b1 + c2 b2), all signed.
    S512 s_k0 = signed_sub(
        signed_sub(s512_from_u256(k), S512{bigint::mul_wide(c1, a1), c1_neg}),
        S512{bigint::mul_wide(c2, a2), c2_neg});
    S512 s_k1 = signed_add(S512{bigint::mul_wide(c1, b1), !(c1_neg ^ b1_neg)},
                           S512{bigint::mul_wide(c2, b2), !(c2_neg ^ b2_neg)});
    EndoDecomp d;
    if (!s512_to_u256(s_k0, d.k0) || !s512_to_u256(s_k1, d.k1)) {
      throw std::logic_error("glv: decomposition out of range");
    }
    d.neg0 = s_k0.neg;
    d.neg1 = s_k1.neg;
    return d;
  }

  static const GlvCtx& get() {
    static const GlvCtx ctx;
    return ctx;
  }
};

/// u = 4965661367192848881, the BN254 curve parameter.
constexpr std::uint64_t kBnU = 0x44e992b44a6909f1ULL;

// ----------------------------------------------------------- G2 4-dim GLS

/// Everything the 4-dim split needs beyond bn_psi_lattice(): the
/// psi-specific structural self-checks (the lattice constructor already
/// verified all the pure-integer facts) and the joint 4-term ladder, as a
/// member so the constructor can exercise it before the context is
/// published.
struct Gls4Ctx {
  Gls4Ctx() {
    const bigint::Lattice4& lat = bn_psi_lattice();
    const G2 g = G2::generator();
    // psi acts as [mu] with mu the lattice eigenvalue...
    if (apply_psi(g) != g.scalar_mul(lat.lambda())) {
      throw std::logic_error("gls4: psi does not act as the lattice eigenvalue");
    }
    // ...and satisfies the degree-4 minimal polynomial psi^4 - psi^2 + 1 = 0
    // on the subgroup, which is what makes the 4 basis columns independent.
    const G2 p2 = apply_psi(apply_psi(g));
    const G2 p4 = apply_psi(apply_psi(p2));
    if (p4 + g != p2) {
      throw std::logic_error("gls4: psi^4 - psi^2 + 1 != 0 on G2");
    }
    // End-to-end: the 4-term ladder against the double-and-add oracle.
    for (const U256& k :
         {U256::one(), U256::from_u64(0xdeadbeefcafef00dULL),
          bigint::mod(U256{{~0ull, ~0ull, ~0ull, ~0ull}}, Fr::modulus())}) {
      if (mul(g, lat.decompose(k)) != g.scalar_mul(k)) {
        throw std::logic_error("gls4: 4-dim multiplication self-check failed");
      }
    }
  }

  /// The joint width-4 wNAF ladder over {Q, psi(Q), psi^2(Q), psi^3(Q)}.
  /// One batch normalization pays for mixed additions throughout; tables
  /// 1..3 are coordinate-wise psi images of table 0 (no point additions).
  [[nodiscard]] G2 mul(const G2& q, const bigint::Decomp4& d) const {
    constexpr unsigned kWindow = 4;
    std::array<std::vector<int>, 4> digits;
    std::size_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      digits[i] = wnaf_digits(d.k[i], kWindow);
      len = std::max(len, digits[i].size());
    }
    if (len == 0) return G2::infinity();

    std::vector<G2> jac;  // odd multiples 1, 3, 5, 7 of q
    jac.reserve(4);
    G2 m = q;
    const G2 twice = q.dbl();
    for (int i = 0; i < 4; ++i) {
      jac.push_back(m);
      m += twice;
    }
    std::array<std::array<AffinePt<Fp2>, 4>, 4> tbl;
    auto base = G2::batch_to_affine(jac);
    for (std::size_t i = 0; i < 4; ++i) tbl[0][i] = base[i];
    for (std::size_t i = 1; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) tbl[i][j] = apply_psi(tbl[i - 1][j]);
    }

    G2 acc = G2::infinity();
    for (std::size_t pos = len; pos-- > 0;) {
      acc = acc.dbl();
      for (std::size_t i = 0; i < 4; ++i) {
        if (pos >= digits[i].size() || digits[i][pos] == 0) continue;
        int v = digits[i][pos];
        AffinePt<Fp2> e = tbl[i][static_cast<std::size_t>(v < 0 ? -v : v) / 2];
        if ((v < 0) != d.neg[i]) e.y = e.y.neg();
        acc = acc.add_mixed(e);
      }
    }
    return acc;
  }

  static const Gls4Ctx& get() {
    static const Gls4Ctx ctx;
    return ctx;
  }
};

U256 reduce_mod_r(const U256& k) {
  if (bigint::cmp(k, Fr::modulus()) < 0) return k;
  return bigint::mod(k, Fr::modulus());
}

/// Simultaneous double-and-add over the two half-length sub-scalars with
/// width-4 wNAF. The second odd-multiple table is the phi image of the first
/// (one cheap map per entry instead of point additions).
G1 dual_wnaf_mul(const G1& p, const EndoDecomp& d) {
  constexpr unsigned kWindow = 4;
  auto d0 = wnaf_digits(d.k0, kWindow);
  auto d1 = wnaf_digits(d.k1, kWindow);
  if (d0.empty() && d1.empty()) return G1::infinity();

  std::array<G1, 4> t0;  // (2i+1) * (+-P)
  t0[0] = d.neg0 ? p.neg() : p;
  G1 twice = t0[0].dbl();
  for (std::size_t i = 1; i < t0.size(); ++i) t0[i] = t0[i - 1] + twice;
  std::array<G1, 4> t1;  // (2i+1) * (+-phi(P))
  const bool flip = d.neg0 != d.neg1;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    t1[i] = apply_phi(t0[i]);
    if (flip) t1[i] = t1[i].neg();
  }

  G1 acc = G1::infinity();
  for (std::size_t i = std::max(d0.size(), d1.size()); i-- > 0;) {
    acc = acc.dbl();
    if (i < d0.size() && d0[i] != 0) {
      int v = d0[i];
      acc += v > 0 ? t0[static_cast<std::size_t>(v / 2)]
                   : t0[static_cast<std::size_t>(-v / 2)].neg();
    }
    if (i < d1.size() && d1[i] != 0) {
      int v = d1[i];
      acc += v > 0 ? t1[static_cast<std::size_t>(v / 2)]
                   : t1[static_cast<std::size_t>(-v / 2)].neg();
    }
  }
  return acc;
}

}  // namespace

G1 apply_phi(const G1& p) {
  if (p.is_infinity()) return p;
  return G1::from_jacobian(p.jac_x() * GlvCtx::get().beta, p.jac_y(),
                           p.jac_z());
}

G2 apply_psi(const G2& p) {
  if (p.is_infinity()) return p;
  const auto& g = field::TowerConsts::get().gamma;
  return G2::from_jacobian(p.jac_x().conjugate() * g[1],
                           p.jac_y().conjugate() * g[2],
                           p.jac_z().conjugate());
}

AffinePt<Fp2> apply_psi(const AffinePt<Fp2>& p) {
  if (p.inf) return p;
  const auto& g = field::TowerConsts::get().gamma;
  return {p.x.conjugate() * g[1], p.y.conjugate() * g[2], false};
}

const U256& glv_lambda() { return GlvCtx::get().lambda; }
const U256& gls_mu() {
  static const U256 mu = (BigUInt(6) * BigUInt(kBnU) * BigUInt(kBnU)).to_u256();
  return mu;
}

EndoDecomp decompose_glv(const U256& k) {
  return GlvCtx::get().decompose(reduce_mod_r(k));
}

G1 g1_mul_endo(const G1& p, const U256& k) {
  if (p.is_infinity()) return p;
  U256 kr = reduce_mod_r(k);
  if (kr.is_zero()) return G1::infinity();
  return dual_wnaf_mul(p, GlvCtx::get().decompose(kr));
}

const bigint::Lattice4& bn_psi_lattice() {
  static const bigint::Lattice4 lat = [] {
    const BigUInt u(kBnU);
    const std::uint64_t U = kBnU;
    // LLL-reduced basis of {(a0..a3) : sum a_i (6u^2)^i = 0 mod r}; every
    // entry is pinned by the curve parameter, determinant -r.
    const bigint::Lattice4::Basis basis = {{
        {{{2 * U, false}, {U + 1, false}, {U, true}, {U, false}}},
        {{{U, true}, {U, false}, {U, true}, {2 * U + 1, true}}},
        {{{U + 1, false}, {U, false}, {U, false}, {2 * U, true}}},
        {{{2 * U + 1, false}, {U, true}, {U + 1, true}, {U, true}}},
    }};
    return bigint::Lattice4(BigUInt::from_u256(Fr::modulus()),
                            BigUInt(6) * u * u, basis, /*max_sub_bits=*/72);
  }();
  return lat;
}

bigint::Decomp4 decompose_gls4(const U256& k) {
  Gls4Ctx::get();  // force the psi-action self-checks once
  return bn_psi_lattice().decompose(reduce_mod_r(k));
}

G2 g2_mul_endo4(const G2& q, const U256& k) {
  if (q.is_infinity()) return q;
  U256 kr = reduce_mod_r(k);
  if (kr.is_zero()) return G2::infinity();
  return Gls4Ctx::get().mul(q, bn_psi_lattice().decompose(kr));
}

}  // namespace ibbe::ec

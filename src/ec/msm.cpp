#include "ec/msm.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "ec/glv.h"

namespace ibbe::ec {

using bigint::U256;
using field::Fp2;
using field::Fr;

namespace {

/// Shared shape of the G1/G2 endo-MSM wrappers: split each scalar into two
/// half-length parts, pair the second with the endomorphism image of the
/// base, and feed the doubled list to the generic engine (whose shared
/// ladder is now ~128 doublings instead of ~256).
template <typename Point, typename Decompose, typename ApplyEndo>
Point endo_msm(std::span<const Point> bases, std::span<const Fr> scalars,
               Decompose&& decompose, ApplyEndo&& endo) {
  const std::size_t n = std::min(bases.size(), scalars.size());
  std::vector<Point> pts;
  std::vector<U256> subs;
  pts.reserve(2 * n);
  subs.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scalars[i].is_zero() || bases[i].is_infinity()) continue;
    EndoDecomp d = decompose(scalars[i].to_u256());
    if (!d.k0.is_zero()) {
      pts.push_back(d.neg0 ? bases[i].neg() : bases[i]);
      subs.push_back(d.k0);
    }
    if (!d.k1.is_zero()) {
      Point e = endo(bases[i]);
      pts.push_back(d.neg1 ? e.neg() : e);
      subs.push_back(d.k1);
    }
  }
  return msm_u256(std::span<const Point>(pts), std::span<const U256>(subs));
}

}  // namespace

G1 msm(std::span<const G1> bases, std::span<const Fr> scalars) {
  return endo_msm(bases, scalars, decompose_glv,
                  [](const G1& p) { return apply_phi(p); });
}

G2 msm(std::span<const G2> bases, std::span<const Fr> scalars) {
  // 4-dim psi split: every (base, scalar) pair becomes up to four
  // (psi^i(base), ~65-bit sub-scalar) pairs, so the generic engine's shared
  // ladder (Straus) or window count (Pippenger) drops to a quarter.
  const std::size_t n = std::min(bases.size(), scalars.size());
  std::vector<G2> pts;
  std::vector<U256> subs;
  pts.reserve(4 * n);
  subs.reserve(4 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scalars[i].is_zero() || bases[i].is_infinity()) continue;
    bigint::Decomp4 d = decompose_gls4(scalars[i].to_u256());
    G2 img = bases[i];
    for (std::size_t j = 0; j < 4; ++j) {
      if (j > 0) img = apply_psi(img);
      if (d.k[j].is_zero()) continue;
      pts.push_back(d.neg[j] ? img.neg() : img);
      subs.push_back(d.k[j]);
    }
  }
  return msm_u256(std::span<const G2>(pts), std::span<const U256>(subs));
}

// ------------------------------------------------------------- G2PowersMsm

G2PowersMsm::G2PowersMsm(std::span<const G2> bases, unsigned window)
    : w_(window), per_(std::size_t{1} << (window - 2)), n_(bases.size()) {
  std::vector<G2> jac;
  jac.reserve(n_ * per_);
  for (const G2& base : bases) {
    msm_detail::append_odd_multiples(jac, base, per_);
  }
  tbl_[0] = G2::batch_to_affine(jac);
  for (std::size_t i = 1; i < 4; ++i) {
    tbl_[i].reserve(tbl_[0].size());
    for (const auto& e : tbl_[i - 1]) tbl_[i].push_back(apply_psi(e));
  }
}

G2 G2PowersMsm::msm(std::span<const Fr> coefs) const {
  struct Term {
    const AffinePt<Fp2>* row;
    bool flip;  // sub-scalar sign, folded into the digit sign when applied
    std::vector<int> digits;
  };
  std::vector<Term> terms;
  const std::size_t m = std::min(n_, coefs.size());
  std::size_t maxlen = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (coefs[i].is_zero()) continue;
    bigint::Decomp4 d = decompose_gls4(coefs[i].to_u256());
    for (std::size_t j = 0; j < 4; ++j) {
      if (d.k[j].is_zero()) continue;
      terms.push_back({&tbl_[j][i * per_], d.neg[j], wnaf_digits(d.k[j], w_)});
      maxlen = std::max(maxlen, terms.back().digits.size());
    }
  }
  G2 acc = G2::infinity();
  for (std::size_t b = maxlen; b-- > 0;) {
    acc = acc.dbl();
    for (const Term& t : terms) {
      if (b >= t.digits.size() || t.digits[b] == 0) continue;
      int v = t.digits[b];
      AffinePt<Fp2> e = t.row[static_cast<std::size_t>(v > 0 ? v : -v) / 2];
      if ((v < 0) != t.flip) e.y = e.y.neg();
      acc = acc.add_mixed(e);
    }
  }
  return acc;
}

// ------------------------------------------------------------------ G2Comb4

G2Comb4::G2Comb4(const G2& base, unsigned window)
    : w_(window),
      wins_((bn_psi_lattice().max_sub_bits + window - 1) / window),
      half_(std::size_t{1} << (window - 1)),
      tbl_(4 * std::size_t{wins_} * half_) {
  // Row bases 2^(w win) * base: a serial chain of doublings, after which the
  // rows are independent, so each one is filled, normalized and psi-mapped
  // on the pool. Every row is canonical affine, so the table is the same at
  // any thread count.
  std::vector<G2> rows(wins_);
  rows[0] = base;
  for (unsigned win = 1; win < wins_; ++win) {
    rows[win] = rows[win - 1];
    for (unsigned j = 0; j < w_; ++j) rows[win] = rows[win].dbl();
  }
  const std::size_t stride = std::size_t{wins_} * half_;
  util::ThreadPool::global().parallel_for(0, wins_, 1, [&](std::size_t win) {
    std::vector<G2> jac(half_);
    jac[0] = rows[win];
    for (std::size_t d = 1; d < half_; ++d) jac[d] = jac[d - 1] + rows[win];
    auto row = G2::batch_to_affine(jac);
    for (std::size_t i = 0; i < 4; ++i) {
      AffinePt<Fp2>* out = &tbl_[i * stride + win * half_];
      for (std::size_t d = 0; d < half_; ++d) {
        if (i > 0) row[d] = apply_psi(row[d]);
        out[d] = row[d];
      }
    }
  });
}

G2 G2Comb4::mul(const bigint::U256& k) const {
  const bigint::Decomp4 d = decompose_gls4(k);
  const std::size_t stride = std::size_t{wins_} * half_;
  G2 acc = G2::infinity();
  for (std::size_t i = 0; i < 4; ++i) {
    if (d.k[i].bit_length() > wins_ * w_) {
      throw std::logic_error("g2comb4: sub-scalar exceeds the comb span");
    }
    // Signed recoding, low digit first: a window value above 2^(w-1)
    // becomes value - 2^w with a carry into the next window.
    unsigned carry = 0;
    for (unsigned win = 0; win < wins_; ++win) {
      int v = static_cast<int>(window_value(d.k[i], win * w_, w_) + carry);
      carry = v > static_cast<int>(half_) ? 1 : 0;
      if (carry) v -= 1 << w_;
      if (v == 0) continue;
      const auto mag = static_cast<std::size_t>(v < 0 ? -v : v);
      AffinePt<Fp2> e = tbl_[i * stride + win * half_ + mag - 1];
      if ((v < 0) != d.neg[i]) e.y = e.y.neg();
      acc = acc.add_mixed(e);
    }
    // decompose_gls4 bounds sub-scalars by 2^72 = 2^(wins w), so a carry
    // out of the top digit (a sub-scalar of 2^71 or more) is the one way
    // left to overflow the comb.
    if (carry) {
      throw std::logic_error("g2comb4: sub-scalar exceeds the comb span");
    }
  }
  return acc;
}

const G2Comb4& g2_generator_comb4() {
  static const G2Comb4 comb(G2::generator());
  return comb;
}

// ----------------------------------------------- JacobianPoint::mul routing
//
// Declared in curves.h so every call site sees them: generator
// multiplications hit the fixed-base comb tables (the 4-dim psi-split one
// for G2); arbitrary G1 points go through the 2-dim GLV decomposition,
// arbitrary G2 points through the 4-dim GLS split; arbitrary P-256 points
// use wNAF.

template <>
template <>
JacobianPoint<G1Params> JacobianPoint<G1Params>::mul(const field::Fr& k) const {
  if (*this == generator()) return generator_table<G1>().mul(k.to_u256());
  return g1_mul_endo(*this, k.to_u256());
}

template <>
template <>
JacobianPoint<G2Params> JacobianPoint<G2Params>::mul(const field::Fr& k) const {
  if (*this == generator()) return g2_generator_comb4().mul(k.to_u256());
  return g2_mul_endo4(*this, k.to_u256());
}

template <>
template <>
JacobianPoint<P256Params> JacobianPoint<P256Params>::mul(
    const field::P256Fr& k) const {
  if (*this == generator()) {
    return generator_table<P256Point>().mul(k.to_u256());
  }
  return scalar_mul_wnaf(k.to_u256(), 5);
}

}  // namespace ibbe::ec

#include "ec/msm.h"

#include <algorithm>

#include "ec/endo.h"
#include "ec/glv.h"

namespace ibbe::ec {

using bigint::U256;
using field::Fp2;
using field::Fr;

namespace {

/// Shared shape of the G1/G2 endo-MSM wrappers: split each scalar into
/// Ops::kDim short sub-scalars, pair the i-th with the endo^i image of the
/// base, and feed the longer list to the generic engine, whose shared ladder
/// (Straus) or window count (Pippenger) shrinks by the factor kDim.
template <typename Ops>
typename Ops::Elem endo_msm(std::span<const typename Ops::Elem> bases,
                            std::span<const Fr> scalars) {
  using Point = typename Ops::Elem;
  const std::size_t n = std::min(bases.size(), scalars.size());
  std::vector<Point> pts;
  std::vector<U256> subs;
  pts.reserve(Ops::kDim * n);
  subs.reserve(Ops::kDim * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scalars[i].is_zero() || bases[i].is_infinity()) continue;
    const auto d = Ops::decompose(scalars[i].to_u256());
    Point img = bases[i];
    for (std::size_t j = 0; j < Ops::kDim; ++j) {
      if (j > 0) img = Ops::endo(img);
      if (d.k[j].is_zero()) continue;
      pts.push_back(d.neg[j] ? img.neg() : img);
      subs.push_back(d.k[j]);
    }
  }
  return msm_u256(std::span<const Point>(pts), std::span<const U256>(subs));
}

}  // namespace

G1 msm(std::span<const G1> bases, std::span<const Fr> scalars) {
  return endo_msm<G1Ops>(bases, scalars);
}

G2 msm(std::span<const G2> bases, std::span<const Fr> scalars) {
  return endo_msm<G2Ops>(bases, scalars);
}

// ------------------------------------------------------------- G2PowersMsm

G2PowersMsm::G2PowersMsm(std::span<const G2> bases) : n_(bases.size()) {
  std::vector<G2> jac;
  jac.reserve(n_ * kPer);
  for (const G2& base : bases) {
    msm_detail::append_odd_multiples(jac, base, kPer);
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
    const bigint::Decomp4 d = G2Ops::decompose(coefs[i].to_u256());
    for (std::size_t j = 0; j < 4; ++j) {
      if (d.k[j].is_zero()) continue;
      terms.push_back(
          {&tbl_[j][i * kPer], d.neg[j], wnaf_digits(d.k[j], kWindow)});
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

// ----------------------------------------------- JacobianPoint::mul routing
//
// Declared in curves.h so every call site sees them: generator
// multiplications hit one fixed-base comb per group (its function-local
// static is built on first use), other G1 and G2 points the endomorphism
// ladder, and other P-256 points wNAF.

template <>
template <>
JacobianPoint<G1Params> JacobianPoint<G1Params>::mul(const field::Fr& k) const {
  if (*this == generator()) {
    static const Comb<G1Ops> gen(generator());
    return gen.pow(k.to_u256());
  }
  return endo_pow<G1Ops>(*this, k.to_u256());
}

template <>
template <>
JacobianPoint<G2Params> JacobianPoint<G2Params>::mul(const field::Fr& k) const {
  if (*this == generator()) {
    static const Comb<G2Ops> gen(generator());
    return gen.pow(k.to_u256());
  }
  return endo_pow<G2Ops>(*this, k.to_u256());
}

template <>
template <>
JacobianPoint<P256Params> JacobianPoint<P256Params>::mul(
    const field::P256Fr& k) const {
  if (*this == generator()) {
    static const Comb<P256Ops> gen(generator());
    return gen.pow(k.to_u256());
  }
  return scalar_mul_wnaf(k.to_u256(), 5);
}

}  // namespace ibbe::ec

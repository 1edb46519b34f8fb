#include "pairing/pairing.h"

#include <stdexcept>

#include "ec/wnaf.h"
#include "field/tower_consts.h"
#include "pairing/gt_exp.h"

namespace ibbe::pairing {

using bigint::U256;
using ec::G1;
using ec::G2;
using field::Fp;
using field::Fp12;
using field::Fp2;

namespace {

/// Signed NAF digits of the optimal-ate loop length 6u + 2 (65 bits), least
/// significant first. The Miller loop and G2 preparation walk this table,
/// and the signed form trades additions for (free) twist-point negations.
constexpr ec::ConstNaf kAteNaf =
    ec::const_naf(static_cast<unsigned __int128>(6) * ec::kBnU + 2);

/// Affine point on the twist (inputs and Frobenius images of Q).
struct TwistPoint {
  Fp2 x;
  Fp2 y;
};

/// pi(x, y) = (conj(x) g2, conj(y) g3) with g_k = xi^(k(p-1)/6).
TwistPoint twist_frobenius(const TwistPoint& q) {
  const auto& g = field::kFrobeniusGamma;
  return {q.x.conjugate() * g[1], q.y.conjugate() * g[2]};
}

// ------------------------------------------------- projective Miller steps
//
// The working point lives in homogeneous projective coordinates (X, Y, Z),
// x = X/Z, y = Y/Z, so both step types are inversion-free: each line is
// scaled by its Fp2 denominator, which the final exponentiation annihilates.

struct ProjPoint {
  Fp2 x;
  Fp2 y;
  Fp2 z;
};

/// Tangent step: emits the line l_{T,T} and doubles T, with the dedicated
/// Costello–Lauter–Naehrig formulas for y^2 = x^3 + b' in homogeneous
/// coordinates (3M + 6S + 1 mult-by-b', vs ~12M + 2S for the generic
/// lambda-derived step):
///   A = XY/2, B = Y^2, C = Z^2, E = 3b'C, F = 3E, G = (B+F)/2,
///   H = (Y+Z)^2 - (B+C) = 2YZ, I = E - B, J = X^2
///   X3 = A(B - F), Y3 = G^2 - 3E^2, Z3 = BH
///   line = -H y_P + 3J x_P + I   (the old line scaled by -1/Z, which the
///   final exponentiation annihilates)
LineCoeffs dbl_step(ProjPoint& t) {
  static const Fp two_inv = Fp::from_u64(2).inverse();
  Fp2 a = (t.x * t.y).mul_by_fp(two_inv);
  Fp2 b = t.y.square();
  Fp2 c = t.z.square();
  Fp2 e = ec::G2Params::b() * (c.dbl() + c);
  Fp2 f = e.dbl() + e;
  Fp2 g = (b + f).mul_by_fp(two_inv);
  Fp2 h = (t.y + t.z).square() - (b + c);
  Fp2 i = e - b;
  Fp2 j = t.x.square();
  Fp2 e2 = e.square();

  LineCoeffs l;
  l.a = h.neg();        // -2YZ       (times y_P)
  l.b = j.dbl() + j;    // 3X^2       (times x_P)
  l.c = i;              // 3b'Z^2 - Y^2

  t.x = a * (b - f);
  t.y = g.square() - (e2.dbl() + e2);
  t.z = b * h;
  return l;
}

/// Chord step: emits the line l_{T,Q} (scaled by F = x_Q Z - X) and sets
/// T <- T + Q for an affine Q.
///   lambda = E/F;  E = y_Q Z - Y, F = x_Q Z - X
///   X3 = HF, Y3 = E(XF^2 - H) - YF^3, Z3 = F^3 Z,  H = E^2 Z - F^3 - 2XF^2
LineCoeffs add_step(ProjPoint& t, const TwistPoint& q) {
  Fp2 e = q.y * t.z - t.y;
  Fp2 f = q.x * t.z - t.x;
  if (f.is_zero()) {
    // T = Q would need a tangent and T = -Q a vertical; neither can occur for
    // order-r inputs at the multiples visited by the ate loop.
    if (e.is_zero()) return dbl_step(t);
    throw std::logic_error("pairing: degenerate addition step (input not in G2?)");
  }
  Fp2 f2 = f.square();
  Fp2 f3 = f2 * f;
  Fp2 e2z = e.square() * t.z;
  Fp2 xf2 = t.x * f2;
  Fp2 h = e2z - f3 - xf2.dbl();

  LineCoeffs l;
  l.a = f;                         // (times y_P)
  l.b = e.neg();                   // (times x_P)
  l.c = e * q.x - f * q.y;

  Fp2 y3 = e * (xf2 - h) - t.y * f3;
  t.x = h * f;
  t.y = y3;
  t.z = f3 * t.z;
  return l;
}

/// One multi-pairing operand: P's affine coordinates plus Q's line table.
struct MillerArg {
  Fp xp;
  Fp yp;
  const std::vector<LineCoeffs>* coeffs;
};

/// Shared-squaring Miller loop driver: one f.square() per NAF digit for ALL
/// operands. Every prepared table is generated from the same digit pattern,
/// so a single cursor walks all of them in lockstep.
Fp12 miller_loop_many(std::span<const MillerArg> args) {
  Fp12 f = Fp12::one();
  if (args.empty()) return f;
  const auto& digits = kAteNaf.digit;
  std::size_t cursor = 0;
  auto eat_lines = [&] {
    for (const auto& arg : args) {
      const LineCoeffs& l = (*arg.coeffs)[cursor];
      f = f.mul_by_line(l.a.mul_by_fp(arg.yp), l.b.mul_by_fp(arg.xp), l.c);
    }
    ++cursor;
  };
  for (std::size_t i = kAteNaf.size - 1; i-- > 0;) {
    f = f.square();
    eat_lines();
    if (digits[i] != 0) eat_lines();
  }
  // Final two Frobenius line steps of the optimal ate pairing.
  eat_lines();
  eat_lines();
  return f;
}

/// f^u over the cyclotomic subgroup (u is 63 bits and positive): signed NAF
/// of u over Karabina compressed squarings with one batched decompression
/// (pairing/gt_exp.h). Valid for any GPhi12(p) member, order r or not.
Fp12 pow_u(const Fp12& f) { return gt_pow_u(f); }

/// Easy part f^((p^6 - 1)(p^2 + 1)) given a precomputed f^-1; lands in the
/// cyclotomic subgroup.
Fp12 easy_part_with_inv(const Fp12& f, const Fp12& f_inv) {
  Fp12 t = f.conjugate() * f_inv;
  return t.frobenius().frobenius() * t;
}

Fp12 easy_part(const Fp12& f) { return easy_part_with_inv(f, f.inverse()); }

/// Hard part t^((p^4 - p^2 + 1)/r) by the BN u-decomposition (the addition
/// chain of Scott et al., "On the final exponentiation for calculating
/// pairings on ordinary elliptic curves", for u > 0): three 63-bit
/// cyclotomic exponentiations by u, Frobenius maps, and conjugations (free
/// inversions in the cyclotomic subgroup) replace the naive ~1000-bit
/// exponentiation. Equivalence with the naive exponentiation is covered by
/// the oracle in tests/support/pairing_oracle.h.
Fp12 hard_part(const Fp12& t) {
  Fp12 fp = t.frobenius();
  Fp12 fp2 = fp.frobenius();
  Fp12 fp3 = fp2.frobenius();
  Fp12 fu = pow_u(t);
  Fp12 fu2 = pow_u(fu);
  Fp12 fu3 = pow_u(fu2);
  Fp12 y0 = fp * fp2 * fp3;
  Fp12 y1 = t.conjugate();
  Fp12 y2 = fu2.frobenius().frobenius();
  Fp12 y3 = fu.frobenius().conjugate();
  Fp12 y4 = (fu * fu2.frobenius()).conjugate();
  Fp12 y5 = fu2.conjugate();
  Fp12 y6 = (fu3 * fu3.frobenius()).conjugate();

  Fp12 t0 = y6.cyclotomic_square() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = t1.cyclotomic_square() * t0;
  t1 = t1.cyclotomic_square();
  t0 = t1 * y1;
  t1 = t1 * y0;
  t0 = t0.cyclotomic_square();
  return t0 * t1;
}

}  // namespace

G2Prepared::G2Prepared(const ec::G2& q) {
  auto qa = q.to_affine();
  if (!qa) return;  // stays empty: prepared infinity
  const TwistPoint q0{qa->first, qa->second};
  const TwistPoint q0_neg{q0.x, q0.y.neg()};

  const auto& digits = kAteNaf.digit;
  std::size_t adds = 0;
  for (std::size_t i = kAteNaf.size - 1; i-- > 0;) adds += digits[i] != 0;
  coeffs_.reserve((kAteNaf.size - 1) + adds + 2);

  ProjPoint t{q0.x, q0.y, Fp2::one()};
  for (std::size_t i = kAteNaf.size - 1; i-- > 0;) {
    coeffs_.push_back(dbl_step(t));
    if (digits[i] == 1) {
      coeffs_.push_back(add_step(t, q0));
    } else if (digits[i] == -1) {
      coeffs_.push_back(add_step(t, q0_neg));
    }
  }
  TwistPoint q1 = twist_frobenius(q0);
  TwistPoint q2 = twist_frobenius(q1);
  coeffs_.push_back(add_step(t, q1));
  coeffs_.push_back(add_step(t, {q2.x, q2.y.neg()}));
}

Fp12 miller_loop(const G1& p, const G2& q) {
  return miller_loop(p, G2Prepared(q));
}

Fp12 miller_loop(const G1& p, const G2Prepared& q) {
  auto pa = p.to_affine();
  if (!pa || q.is_infinity()) return Fp12::one();
  MillerArg arg{pa->first, pa->second, &q.coeffs()};
  return miller_loop_many({&arg, 1});
}

Fp12 final_exponentiation(const Fp12& f) { return hard_part(easy_part(f)); }

std::vector<Fp12> final_exponentiation_many(std::span<const Fp12> fs) {
  if (fs.empty()) return {};
  // Per-element results are identical to final_exponentiation; the only
  // sharing is the easy part's field inversion, which Montgomery's trick
  // turns into one inversion for the whole batch.
  std::vector<Fp12> inv(fs.begin(), fs.end());
  field::batch_inverse(std::span<Fp12>(inv));
  std::vector<Fp12> out;
  out.reserve(fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    out.push_back(hard_part(easy_part_with_inv(fs[i], inv[i])));
  }
  return out;
}

Gt pairing(const G1& p, const G2& q) {
  return Gt::from_fp12_unchecked(final_exponentiation(miller_loop(p, q)));
}

Gt pairing(const G1& p, const G2Prepared& q) {
  return Gt::from_fp12_unchecked(final_exponentiation(miller_loop(p, q)));
}

Gt pairing_product(std::span<const std::pair<G1, G2>> pairs) {
  std::vector<G2Prepared> prepared;
  prepared.reserve(pairs.size());
  std::vector<PairingInput> inputs;
  inputs.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    if (p.is_infinity() || q.is_infinity()) continue;
    prepared.emplace_back(q);
    inputs.push_back({p, &prepared.back()});
  }
  return pairing_product_prepared(inputs);
}

Gt pairing_product_prepared(std::span<const PairingInput> pairs) {
  // The live (non-infinity) operands, walked by one shared-squaring loop.
  std::vector<MillerArg> args;
  args.reserve(pairs.size());
  for (const auto& input : pairs) {
    if (input.g2 == nullptr) {
      throw std::invalid_argument("pairing_product_prepared: null G2Prepared");
    }
    auto pa = input.g1.to_affine();
    if (!pa || input.g2->is_infinity()) continue;
    args.push_back({pa->first, pa->second, &input.g2->coeffs()});
  }
  return Gt::from_fp12_unchecked(final_exponentiation(miller_loop_many(args)));
}

}  // namespace ibbe::pairing

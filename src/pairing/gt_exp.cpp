#include "pairing/gt_exp.h"

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bigint/biguint.h"
#include "bigint/lattice4.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "ec/wnaf.h"
#include "field/fields.h"
#include "pairing/pairing.h"
#include "util/thread_pool.h"

namespace ibbe::pairing {

using bigint::BigUInt;
using bigint::U256;
using field::Fp12;
using field::Fp12Compressed;
using field::Fr;

namespace {

/// The BN parameter u = 4965661367192848881 (63 bits, positive), the same
/// constant the Miller loop and final exponentiation are built from.
constexpr std::uint64_t kBnU = 0x44e992b44a6909f1ULL;

// -------------------------------------------------------- NAF of u (static)

/// Signed NAF digits of u, least significant first (top digit is +1):
/// width-2 wNAF from the shared recoding helper IS the canonical NAF.
const std::vector<int>& u_naf_digits() {
  static const std::vector<int> digits =
      ec::wnaf_digits(U256::from_u64(kBnU), 2);
  return digits;
}

/// x^u over the compressed-squaring ladder; factored out of gt_pow_u so the
/// context self-checks can call it before the context finishes constructing.
Fp12 pow_u_impl(const Fp12& x) {
  const auto& naf = u_naf_digits();
  // Snapshot x^(2^i) (compressed) at every nonzero digit position i >= 1;
  // one batched decompression then recovers all of them together.
  std::vector<Fp12Compressed> snaps;
  std::vector<int> signs;
  snaps.reserve(naf.size() / 3 + 1);
  Fp12Compressed run = x.compress();
  for (std::size_t i = 1; i < naf.size(); ++i) {
    run = run.square();
    if (naf[i] != 0) {
      snaps.push_back(run);
      signs.push_back(naf[i]);
    }
  }
  std::vector<Fp12> full = Fp12Compressed::decompress_many(snaps);
  Fp12 acc = naf[0] == 1    ? x
             : naf[0] == -1 ? x.conjugate()
                            : Fp12::one();
  for (std::size_t j = 0; j < full.size(); ++j) {
    acc *= signs[j] > 0 ? full[j] : full[j].conjugate();
  }
  return acc;
}

/// Deterministic non-trivial member of the cyclotomic subgroup GPhi12(p):
/// the easy part f^((p^6-1)(p^2+1)) of a fixed element, computed with plain
/// field arithmetic so the self-checks need no pairing machinery.
Fp12 sample_cyclotomic() {
  using field::Fp;
  using field::Fp2;
  using field::Fp6;
  Fp6 c0(Fp2(Fp::from_u64(1), Fp::from_u64(2)),
         Fp2(Fp::from_u64(3), Fp::from_u64(4)),
         Fp2(Fp::from_u64(5), Fp::from_u64(6)));
  Fp6 c1(Fp2(Fp::from_u64(7), Fp::from_u64(8)),
         Fp2(Fp::from_u64(9), Fp::from_u64(10)),
         Fp2(Fp::from_u64(11), Fp::from_u64(12)));
  Fp12 f(c0, c1);
  Fp12 t = f.conjugate() * f.inverse();   // f^(p^6 - 1)
  return t.frobenius().frobenius() * t;   // ^(p^2 + 1)
}

// -------------------------------------------------- Karabina / NAF-of-u ctx

struct UCtx {
  UCtx() {
    const Fp12 x = sample_cyclotomic();
    if (x.is_one()) throw std::logic_error("gt_exp: degenerate sample element");
    if (x.compress().decompress() != x) {
      throw std::logic_error("gt_exp: Karabina decompression round-trip failed");
    }
    if (x.compress().square().decompress() != x.cyclotomic_square()) {
      throw std::logic_error("gt_exp: Karabina compressed squaring mismatch");
    }
    if (pow_u_impl(x) != x.pow_cyclotomic(U256::from_u64(kBnU))) {
      throw std::logic_error("gt_exp: NAF-of-u exponentiation mismatch");
    }
  }

  static const UCtx& get() {
    static const UCtx ctx;
    return ctx;
  }
};

// ----------------------------------------------------- 4-dim Frobenius ctx

struct Gt4Ctx {
  // The lattice itself (basis, determinant, Babai reciprocals, and the
  // integer recombination/shortness self-checks) is ec::bn_psi_lattice():
  // psi on G2 and the p-power Frobenius here share the eigenvalue
  // lambda = 6u^2 = p mod r, so both engines decompose against the SAME
  // basis. This context only adds the Fp12-specific facts.
  const bigint::Lattice4& lat;
  U256 lambda;  // p mod r = 6u^2

  Gt4Ctx() : lat(ec::bn_psi_lattice()), lambda(lat.lambda()) {
    const BigUInt u(kBnU);
    if (BigUInt::from_u256(lambda) != BigUInt(6) * u * u) {
      throw std::logic_error("gt_exp: lattice eigenvalue is not 6u^2");
    }

    // End-to-end self-checks on a genuine order-r element (one final
    // exponentiation; its u-ladders route through the UCtx above, which is
    // independent of this context, so there is no initialization cycle).
    const Fp12 x = final_exponentiation(sample_cyclotomic());
    if (x.is_one() || !x.pow_cyclotomic(Fr::modulus()).is_one()) {
      throw std::logic_error("gt_exp: sample element is not order r");
    }
    if (x.frobenius() != x.pow_cyclotomic(lambda)) {
      throw std::logic_error("gt_exp: Frobenius does not act as [lambda]");
    }
    for (const U256& k :
         {U256::one(), U256::from_u64(0xdeadbeefcafef00dULL),
          bigint::mod(U256{{~0ull, ~0ull, ~0ull, ~0ull}}, Fr::modulus())}) {
      if (pow(x, k) != x.pow_cyclotomic(k)) {
        throw std::logic_error("gt_exp: 4-dim exponentiation mismatch");
      }
    }
  }

  [[nodiscard]] Gt4Decomp decompose(const U256& k) const {
    return lat.decompose(k);
  }

  /// The 4-way joint wNAF ladder; callable from the constructor self-check.
  [[nodiscard]] Fp12 pow(const Fp12& x, const U256& k) const {
    if (k.is_zero()) return Fp12::one();
    Gt4Decomp d = decompose(k);

    constexpr unsigned kWindow = 4;
    std::array<std::vector<int>, 4> digits;
    std::size_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      digits[i] = ec::wnaf_digits(d.k[i], kWindow);
      len = std::max(len, digits[i].size());
    }
    if (len == 0) return Fp12::one();

    // Odd-multiple tables: tbl[0] costs one squaring and three
    // multiplications; the other three are Frobenius images of it
    // (pi(x^m) = pi(x)^m, one cheap map per entry). Sub-scalar signs fold
    // into the digit sign at application time (conjugation is free).
    std::array<std::array<Fp12, 4>, 4> tbl;
    tbl[0][0] = x;
    Fp12 x2 = x.cyclotomic_square();
    for (std::size_t m = 1; m < 4; ++m) tbl[0][m] = tbl[0][m - 1] * x2;
    for (std::size_t i = 1; i < 4; ++i) {
      for (std::size_t m = 0; m < 4; ++m) tbl[i][m] = tbl[i - 1][m].frobenius();
    }

    Fp12 acc = Fp12::one();
    bool started = false;
    for (std::size_t pos = len; pos-- > 0;) {
      if (started) acc = acc.cyclotomic_square();
      for (std::size_t i = 0; i < 4; ++i) {
        if (pos >= digits[i].size() || digits[i][pos] == 0) continue;
        int v = digits[i][pos];
        bool negate = (v < 0) != d.neg[i];
        const Fp12& entry = tbl[i][static_cast<std::size_t>(v < 0 ? -v : v) / 2];
        acc *= negate ? entry.conjugate() : entry;
        started = true;
      }
    }
    return acc;
  }

  static const Gt4Ctx& get() {
    static const Gt4Ctx ctx;
    return ctx;
  }
};

U256 reduce_mod_r(const U256& k) {
  return bigint::cmp(k, Fr::modulus()) < 0 ? k : bigint::mod(k, Fr::modulus());
}

// ----------------------------------------------------------- GtComb4 layout

constexpr unsigned kCombWindow = 8;
constexpr std::size_t kCombHalf = std::size_t{1} << (kCombWindow - 1);  // 128
/// Signed digits per sub-scalar. Nine cover every sub-scalar below 2^71;
/// the Babai round-off keeps them below ~2^65 (bigint/lattice4.h).
constexpr unsigned kCombDigits = 9;

}  // namespace

Fp12 gt_pow(const Fp12& x, const U256& k) {
  return Gt4Ctx::get().pow(x, reduce_mod_r(k));
}

GtComb4::GtComb4(const Fp12& base) : tbl_(kCombDigits * kCombHalf) {
  // Row bases base^(2^(8 win)): a serial chain of 64 cyclotomic squarings,
  // after which the rows are independent.
  std::vector<Fp12> rows(kCombDigits);
  rows[0] = base;
  for (unsigned win = 1; win < kCombDigits; ++win) {
    rows[win] = rows[win - 1];
    for (unsigned j = 0; j < kCombWindow; ++j) {
      rows[win] = rows[win].cyclotomic_square();
    }
  }
  util::ThreadPool::global().parallel_for(
      0, kCombDigits, 1, [&](std::size_t win) {
        Fp12* row = &tbl_[win * kCombHalf];
        row[0] = rows[win];
        for (std::size_t d = 1; d < kCombHalf; ++d) {
          row[d] = row[d - 1] * rows[win];
        }
      });
}

Fp12 GtComb4::pow(const U256& k) const {
  const U256 kr = reduce_mod_r(k);
  if (kr.is_zero()) return Fp12::one();
  const Gt4Decomp d = Gt4Ctx::get().decompose(kr);
  std::array<Fp12, 4> part;
  for (std::size_t i = 0; i < 4; ++i) {
    // Signed recoding, low digit first: a window value above 128 becomes
    // value - 256 with a carry into the next window.
    std::optional<Fp12> acc;
    unsigned carry = 0;
    for (unsigned win = 0; win < kCombDigits; ++win) {
      int v = static_cast<int>(
          ec::window_value(d.k[i], win * kCombWindow, kCombWindow) + carry);
      carry = v > static_cast<int>(kCombHalf) ? 1 : 0;
      if (carry) v -= 1 << kCombWindow;
      if (v == 0) continue;
      const Fp12& e = tbl_[win * kCombHalf +
                           static_cast<std::size_t>(v < 0 ? -v : v) - 1];
      const Fp12 term = v < 0 ? e.conjugate() : e;
      acc = acc ? *acc * term : term;
    }
    // decompose() bounds sub-scalars by 2^72, so a carry out of the ninth
    // digit (only for a sub-scalar of 2^71 or more) is the one way to
    // overflow the comb.
    if (carry) {
      throw std::logic_error("gt comb: sub-scalar exceeds the comb span");
    }
    const Fp12 a = acc.value_or(Fp12::one());
    part[i] = d.neg[i] ? a.conjugate() : a;
  }
  // x^k = part[0] * pi(part[1]) * pi^2(part[2]) * pi^3(part[3]).
  Fp12 out = part[3];
  for (std::size_t i = 3; i-- > 0;) out = out.frobenius() * part[i];
  return out;
}

Fp12 gt_pow_u(const Fp12& x) {
  UCtx::get();
  return pow_u_impl(x);
}

const U256& gt_lambda() { return Gt4Ctx::get().lambda; }

Gt4Decomp decompose_gt(const U256& k) {
  if (bigint::cmp(k, Fr::modulus()) >= 0) {
    throw std::invalid_argument("decompose_gt: scalar not reduced mod r");
  }
  return Gt4Ctx::get().decompose(k);
}

}  // namespace ibbe::pairing

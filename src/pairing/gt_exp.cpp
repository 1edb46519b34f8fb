#include "pairing/gt_exp.h"

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bigint/lattice4.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "ec/wnaf.h"
#include "field/fields.h"
#include "util/thread_pool.h"

namespace ibbe::pairing {

using bigint::U256;
using field::Fp12;
using field::Fp12Compressed;
using field::Fr;

namespace {

/// Signed NAF digits of u, least significant first (top digit is +1).
constexpr ec::ConstNaf kUNaf = ec::const_naf(ec::kBnU);

/// The 4-way joint wNAF ladder over {x, pi(x), pi^2(x), pi^3(x)}; k < r.
Fp12 frobenius4_pow(const Fp12& x, const U256& k) {
  if (k.is_zero()) return Fp12::one();
  const bigint::Decomp4 d = ec::bn_psi_lattice().decompose(k);

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
  return frobenius4_pow(x, reduce_mod_r(k));
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
  const Gt4Decomp d = ec::bn_psi_lattice().decompose(kr);
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
  // Snapshot x^(2^i) (compressed) at every nonzero digit position i >= 1;
  // one batched decompression then recovers all of them together.
  std::vector<Fp12Compressed> snaps;
  std::vector<int> signs;
  snaps.reserve(kUNaf.size / 3 + 1);
  Fp12Compressed run = x.compress();
  for (std::size_t i = 1; i < kUNaf.size; ++i) {
    run = run.square();
    if (kUNaf.digit[i] != 0) {
      snaps.push_back(run);
      signs.push_back(kUNaf.digit[i]);
    }
  }
  std::vector<Fp12> full = Fp12Compressed::decompress_many(snaps);
  Fp12 acc = kUNaf.digit[0] == 1    ? x
             : kUNaf.digit[0] == -1 ? x.conjugate()
                                    : Fp12::one();
  for (std::size_t j = 0; j < full.size(); ++j) {
    acc *= signs[j] > 0 ? full[j] : full[j].conjugate();
  }
  return acc;
}

Gt4Decomp decompose_gt(const U256& k) {
  if (bigint::cmp(k, Fr::modulus()) >= 0) {
    throw std::invalid_argument("decompose_gt: scalar not reduced mod r");
  }
  return ec::bn_psi_lattice().decompose(k);
}

}  // namespace ibbe::pairing

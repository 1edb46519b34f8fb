// Single-base exponentiation for every group in the project: one
// signed-digit comb for fixed bases and one endomorphism ladder for
// variable bases, shared by G1, G2, GT and P-256.
//
// Both split the scalar first. k = sum_i (-1)^neg[i] k[i] l^i (mod the group
// order), where l is the eigenvalue of a cheap endomorphism: phi on G1 (GLV,
// Gallant, Lambert and Vanstone, CRYPTO 2001), psi on G2 and the p-power
// Frobenius on GT (the 4-dim form of Galbraith, Lin and Scott, EUROCRYPT
// 2009), and none on P-256 (one sub-scalar, k itself).
//
//   Comb<Ops>     — one table of signed-digit rows for one long-lived base:
//                   row j holds base^(|d| 2^(w j)) for |d| = 1 .. 2^(w-1),
//                   and a negative digit uses the free inverse. Each
//                   sub-scalar is summed into its own partial from the same
//                   table, with no squarings, and the partials are joined
//                   Horner-style by the endomorphism:
//                   base^k = a_0 endo(a_1 endo(a_2 endo(a_3))).
//   endo_pow<Ops> — one joint wNAF ladder over {x, endo(x), endo^2(x), ...},
//                   whose odd-multiple tables are endomorphism images of the
//                   first, so its shared squaring chain is as long as the
//                   longest sub-scalar.
//
// Each group supplies one Ops struct (G1Ops and G2Ops in ec/glv.h, P256Ops
// below, pairing::GtOps in pairing/gt_exp.h), written multiplicatively:
//   Elem, Entry, LadderEntry   the group element, the comb's table entry
//                              (affine for curves), the ladder's table entry
//                              (affine where one batch inversion costs less
//                              than the mixed additions save)
//   kDim                       sub-scalars per scalar
//   kSpan                      every sub-scalar has fewer than kSpan bits;
//                              the spare bit holds the top digit's carry
//   kCombWindow, kLadderWindow the two window widths
//   one, dbl, add, neg, lift   identity, squaring, the group operation on
//                              (Elem, Elem) and (Elem, entry), the inverse of
//                              an element or entry, an entry as an Elem
//   endo                       the endomorphism on Elem and LadderEntry
//                              (only when kDim > 1)
//   normalize                  Elems to table entries (one batch inversion)
//   decompose                  any U256 to a bigint::Decomp<kDim>
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "bigint/lattice4.h"
#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/wnaf.h"
#include "util/thread_pool.h"

namespace ibbe::ec {

namespace endo_detail {

/// acc <- acc * e, where an empty acc is the identity (so GT never
/// multiplies by one).
template <typename Ops, typename E>
void accumulate(std::optional<typename Ops::Elem>& acc, const E& e) {
  acc = acc ? Ops::add(*acc, e) : Ops::lift(e);
}

}  // namespace endo_detail

/// The Ops members every Jacobian curve shares. G1Ops, G2Ops and P256Ops add
/// the endomorphism, the decomposition and the constants.
template <typename Point>
struct CurveOps {
  using Elem = Point;
  using Entry = AffinePt<typename Point::Field>;

  static Point one() { return Point::infinity(); }
  static Point dbl(const Point& a) { return a.dbl(); }
  static Point add(const Point& a, const Point& b) { return a + b; }
  static Point add(const Point& a, const Entry& e) { return a.add_mixed(e); }
  static Point neg(const Point& a) { return a.neg(); }
  static Entry neg(Entry e) {
    e.y = e.y.neg();
    return e;
  }
  static Point lift(const Point& a) { return a; }
  static Point lift(const Entry& e) { return Point::from_affine(e); }
  static std::vector<Entry> normalize(std::vector<Point>&& pts) {
    return Point::batch_to_affine(pts);
  }
};

/// P-256 has no cheap endomorphism: one sub-scalar, k itself. Any U256 k has
/// at most 256 bits, so the comb spans 257.
struct P256Ops : CurveOps<P256Point> {
  using LadderEntry = P256Point;
  static constexpr std::size_t kDim = 1;
  static constexpr unsigned kSpan = 257;
  static constexpr unsigned kCombWindow = 5;
  static constexpr unsigned kLadderWindow = 5;
  static bigint::Decomp<1> decompose(const bigint::U256& k) {
    return {{k}, {false}};
  }
};

/// Fixed-base comb for one base; see the header comment. A power costs at
/// most kDim * kRows table operations and kDim - 1 endomorphism joins. The
/// rows are built on the global thread pool, one task each; the entries are
/// canonical (affine points, or Fp12 values), so the table is the same at any
/// thread count.
template <typename Ops>
class Comb {
 public:
  using Elem = typename Ops::Elem;
  using Entry = typename Ops::Entry;
  static constexpr unsigned kWindow = Ops::kCombWindow;
  /// Signed digits per sub-scalar.
  static constexpr unsigned kRows = (Ops::kSpan + kWindow - 1) / kWindow;
  /// Entries per row, one per digit magnitude 1 .. 2^(w-1).
  static constexpr std::size_t kHalf = std::size_t{1} << (kWindow - 1);

  explicit Comb(const Elem& base) : tbl_(kRows * kHalf) {
    // Row bases base^(2^(w j)): a serial chain of squarings, after which the
    // rows are independent.
    std::vector<Elem> rows(kRows);
    rows[0] = base;
    for (unsigned j = 1; j < kRows; ++j) {
      rows[j] = rows[j - 1];
      for (unsigned b = 0; b < kWindow; ++b) rows[j] = Ops::dbl(rows[j]);
    }
    util::ThreadPool::global().parallel_for(0, kRows, 1, [&](std::size_t j) {
      std::vector<Elem> row(kHalf);
      row[0] = rows[j];
      for (std::size_t m = 1; m < kHalf; ++m) {
        row[m] = Ops::add(row[m - 1], rows[j]);
      }
      const std::vector<Entry> entries = Ops::normalize(std::move(row));
      std::copy(entries.begin(), entries.end(), tbl_.begin() + j * kHalf);
    });
  }

  /// base^k for any U256 k (reduced by the decomposition where the group
  /// order is below 2^256).
  [[nodiscard]] Elem pow(const bigint::U256& k) const {
    const auto d = Ops::decompose(k);
    std::array<Elem, Ops::kDim> part;
    for (std::size_t i = 0; i < Ops::kDim; ++i) {
      // Below 2^(kSpan - 1), the top digit absorbs the last carry.
      if (d.k[i].bit_length() >= Ops::kSpan) {
        throw std::logic_error("comb: sub-scalar exceeds the comb span");
      }
      // Signed recoding, low digit first: a window value above 2^(w-1)
      // becomes value - 2^w with a carry into the next window.
      std::optional<Elem> acc;
      unsigned carry = 0;
      for (unsigned j = 0; j < kRows; ++j) {
        int v = static_cast<int>(window_value(d.k[i], j * kWindow, kWindow) +
                                 carry);
        carry = v > static_cast<int>(kHalf) ? 1 : 0;
        if (carry) v -= 1 << kWindow;
        if (v == 0) continue;
        const Entry& e =
            tbl_[j * kHalf + static_cast<std::size_t>(v < 0 ? -v : v) - 1];
        endo_detail::accumulate<Ops>(acc, v < 0 ? Ops::neg(e) : e);
      }
      const Elem a = acc.value_or(Ops::one());
      part[i] = d.neg[i] ? Ops::neg(a) : a;
    }
    Elem out = part[Ops::kDim - 1];
    if constexpr (Ops::kDim > 1) {
      for (std::size_t i = Ops::kDim - 1; i-- > 0;) {
        out = Ops::add(Ops::endo(out), part[i]);
      }
    }
    return out;
  }

  /// Heap bytes held by the table.
  [[nodiscard]] std::size_t table_bytes() const {
    return tbl_.size() * sizeof(Entry);
  }

 private:
  // tbl_[j * kHalf + (|d| - 1)] = base^(|d| 2^(w j)).
  std::vector<Entry> tbl_;
};

/// x^k for any U256 k by the joint wNAF ladder; see the header comment.
/// Where a group has an endomorphism, x must lie in the subgroup it acts on
/// as [l] (G1, G2 or order-r GT elements).
template <typename Ops>
typename Ops::Elem endo_pow(const typename Ops::Elem& x,
                            const bigint::U256& k) {
  using Elem = typename Ops::Elem;
  using Entry = typename Ops::LadderEntry;
  constexpr std::size_t kDim = Ops::kDim;
  constexpr std::size_t kOdd = std::size_t{1} << (Ops::kLadderWindow - 2);

  const auto d = Ops::decompose(k);
  std::array<std::vector<int>, kDim> digits;
  std::size_t len = 0;
  for (std::size_t i = 0; i < kDim; ++i) {
    digits[i] = wnaf_digits(d.k[i], Ops::kLadderWindow);
    len = std::max(len, digits[i].size());
  }
  if (len == 0) return Ops::one();

  // Odd multiples x, x^3, ..., x^(2 kOdd - 1). Tables 1 .. kDim-1 are
  // endomorphism images of table 0, one map per entry.
  std::vector<Elem> odd(kOdd);
  odd[0] = x;
  const Elem twice = Ops::dbl(x);
  for (std::size_t m = 1; m < kOdd; ++m) odd[m] = Ops::add(odd[m - 1], twice);
  std::array<std::vector<Entry>, kDim> tbl;
  if constexpr (std::is_same_v<Entry, Elem>) {
    tbl[0] = std::move(odd);
  } else {
    tbl[0] = Ops::normalize(std::move(odd));
  }
  if constexpr (kDim > 1) {
    for (std::size_t i = 1; i < kDim; ++i) {
      tbl[i].reserve(kOdd);
      for (const Entry& e : tbl[i - 1]) tbl[i].push_back(Ops::endo(e));
    }
  }

  // The sub-scalar signs fold into the digit signs.
  std::optional<Elem> acc;
  for (std::size_t pos = len; pos-- > 0;) {
    if (acc) acc = Ops::dbl(*acc);
    for (std::size_t i = 0; i < kDim; ++i) {
      if (pos >= digits[i].size() || digits[i][pos] == 0) continue;
      const int v = digits[i][pos];
      const Entry& e = tbl[i][static_cast<std::size_t>(v < 0 ? -v : v) / 2];
      endo_detail::accumulate<Ops>(acc, (v < 0) != d.neg[i] ? Ops::neg(e) : e);
    }
  }
  return *acc;  // the top digit of the longest sub-scalar is non-zero
}

}  // namespace ibbe::ec

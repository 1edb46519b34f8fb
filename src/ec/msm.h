// Multi-scalar multiplication engine.
//
// Two tiers, picked by workload shape:
//
//   msm_u256 / msm      — one-shot Σ k_i P_i. Straus interleaved wNAF with
//                         batch-normalized odd-multiple tables for n <= 32,
//                         Pippenger bucket aggregation above. The Fr
//                         overloads first split every scalar with GLV (G1,
//                         2-dim) / GLS (G2, 4-dim psi split), so the shared
//                         doubling ladder is half / quarter length.
//   G2PowersMsm         — many fixed G2 bases (the IBBE public key's
//                         h^(gamma^i) powers): per-base affine odd-multiple
//                         tables plus their psi/psi^2/psi^3 images, consumed
//                         by a 4-dim-GLS-decomposed Straus loop.
//
// A single base, fixed or not, goes through ec/endo.h instead: the comb
// Comb<Ops> for long-lived bases (the generators, the IBBE key's w and h)
// and the ladder endo_pow<Ops> for the rest.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/u256.h"
#include "ec/curves.h"
#include "ec/wnaf.h"
#include "field/fields.h"
#include "util/thread_pool.h"

namespace ibbe::ec {

namespace msm_detail {

/// Appends the first `per` odd multiples base, 3*base, ..., (2 per - 1)*base
/// to `jac` (the wNAF table layout shared by Straus and G2PowersMsm).
template <typename Point>
void append_odd_multiples(std::vector<Point>& jac, const Point& base,
                          std::size_t per) {
  Point m = base;
  Point twice = base.dbl();
  for (std::size_t d = 0; d < per; ++d) {
    jac.push_back(m);
    m += twice;
  }
}

inline unsigned max_bit_length(std::span<const bigint::U256> scalars,
                               std::size_t n) {
  unsigned bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bits = std::max(bits, scalars[i].bit_length());
  }
  return bits;
}

/// Straus: one shared doubling ladder, per-point wNAF digits against
/// batch-normalized odd-multiple tables (one field inversion total).
template <typename Point>
Point straus(std::span<const Point> bases,
             std::span<const bigint::U256> scalars, std::size_t n) {
  using Field = typename Point::Field;
  constexpr unsigned kWindow = 4;
  constexpr std::size_t kPer = 4;  // odd multiples 1,3,5,7

  std::vector<std::vector<int>> digits(n);
  std::size_t maxlen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    digits[i] = wnaf_digits(scalars[i], kWindow);
    maxlen = std::max(maxlen, digits[i].size());
  }
  std::vector<Point> jac;
  jac.reserve(n * kPer);
  for (std::size_t i = 0; i < n; ++i) {
    append_odd_multiples(jac, bases[i], kPer);
  }
  auto tbl = Point::batch_to_affine(jac);

  Point acc = Point::infinity();
  for (std::size_t b = maxlen; b-- > 0;) {
    acc = acc.dbl();
    for (std::size_t i = 0; i < n; ++i) {
      if (b >= digits[i].size() || digits[i][b] == 0) continue;
      int v = digits[i][b];
      AffinePt<Field> e =
          tbl[i * kPer + static_cast<std::size_t>(v > 0 ? v : -v) / 2];
      if (v < 0) e.y = e.y.neg();
      acc = acc.add_mixed(e);
    }
  }
  return acc;
}

/// Pippenger: per-window buckets with a running-sum sweep. Window width
/// grows with n, so the per-point cost approaches one addition per window.
///
/// The per-window bucket accumulations are independent of the doubling
/// ladder, so they fan out to the thread pool (one slot per window, each
/// task owning a private bucket array); the c-doubling fold that combines
/// the window sums stays serial and performs exactly the additions the
/// serial interleaved loop would, in its order — the result is
/// bitwise-identical at any thread count.
template <typename Point>
Point pippenger(std::span<const Point> bases,
                std::span<const bigint::U256> scalars, std::size_t n,
                unsigned max_bits) {
  unsigned nbits = 0;
  for (std::size_t v = n; v > 0; v >>= 1) ++nbits;
  const unsigned c = std::min(12u, std::max(4u, nbits - 2));
  const unsigned wins = (max_bits + c - 1) / c;

  std::vector<Point> window_sums(wins);
  util::ThreadPool::global().parallel_for(0, wins, 1, [&](std::size_t win) {
    std::vector<Point> buckets((std::size_t{1} << c) - 1, Point::infinity());
    for (std::size_t i = 0; i < n; ++i) {
      unsigned d = window_value(scalars[i], static_cast<unsigned>(win) * c, c);
      if (d) buckets[d - 1] += bases[i];
    }
    // Σ d * bucket[d] via the running-sum identity.
    Point run = Point::infinity();
    Point sum = Point::infinity();
    for (std::size_t j = buckets.size(); j-- > 0;) {
      run += buckets[j];
      sum += run;
    }
    window_sums[win] = sum;
  });

  Point acc = Point::infinity();
  for (unsigned win = wins; win-- > 0;) {
    if (win + 1 != wins) {
      for (unsigned j = 0; j < c; ++j) acc = acc.dbl();
    }
    acc += window_sums[win];
  }
  return acc;
}

}  // namespace msm_detail

/// Σ scalars[i] * bases[i] over min(sizes) terms; plain integer semantics
/// (works for any curve instantiation, no subgroup assumption).
template <typename Point>
Point msm_u256(std::span<const Point> bases,
               std::span<const bigint::U256> scalars) {
  const std::size_t n = std::min(bases.size(), scalars.size());
  if (n == 0) return Point::infinity();
  const unsigned max_bits = msm_detail::max_bit_length(scalars, n);
  if (max_bits == 0) return Point::infinity();
  if (n <= 32) return msm_detail::straus(bases, scalars, n);
  return msm_detail::pippenger(bases, scalars, n, max_bits);
}

/// Endomorphism-decomposed MSM: every scalar is split GLV (G1, two
/// half-length sub-scalars) / 4-dim GLS (G2, four quarter-length
/// sub-scalars) first, shrinking the shared doubling ladder accordingly
/// (and, on the Pippenger path, the per-point window count). Defined in
/// msm.cpp. G2 bases must lie in the order-r subgroup.
G1 msm(std::span<const G1> bases, std::span<const field::Fr> scalars);
G2 msm(std::span<const G2> bases, std::span<const field::Fr> scalars);

/// Prepared multi-base MSM over fixed G2 points in the order-r subgroup
/// (the IBBE public key's h^(gamma^i) powers): per-base affine odd-multiple
/// tables plus their psi/psi^2/psi^3 images, consumed by a 4-dim-GLS-split
/// Straus loop whose shared ladder is ~64 doublings. Build cost ~9 G2
/// operations per base (the psi tables are coordinate maps, not additions),
/// one field inversion total.
class G2PowersMsm {
 public:
  explicit G2PowersMsm(std::span<const G2> bases);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Σ coefs[i] * bases[i] over min(size(), coefs.size()) terms; zero
  /// coefficients are skipped.
  [[nodiscard]] G2 msm(std::span<const field::Fr> coefs) const;

 private:
  static constexpr unsigned kWindow = 5;
  static constexpr std::size_t kPer = std::size_t{1} << (kWindow - 2);
  std::size_t n_;
  // tbl_[i] is the psi^i image of the base table; tbl_[i][b * kPer + m] =
  // psi^i((2m + 1) bases[b]).
  std::array<std::vector<AffinePt<field::Fp2>>, 4> tbl_;
};

}  // namespace ibbe::ec

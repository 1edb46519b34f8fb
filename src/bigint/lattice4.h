// Four-dimensional lattice scalar decomposition (shared Babai round-off).
//
// Both degree-4 endomorphism engines in this project — the Gt Frobenius
// exponentiation (pairing/gt_exp.*) and the 4-dim GLS split for G2
// (ec/glv.*) — decompose a scalar k against the SAME object: a reduced basis
// of the lattice
//
//   L = { (a0, a1, a2, a3) : a0 + a1 l + a2 l^2 + a3 l^3 = 0 (mod n) },
//
// where l is the endomorphism eigenvalue (6u^2 for both of them — psi on G2
// and the p-power Frobenius on Gt share it) and n the group order r. A
// Lattice4 holds that basis together with its Babai rounding reciprocals and
// signs, all literals (the one instance is ec::bn_psi_lattice(); the
// constants test in tests/ pins every field by its defining property), and
// runs the per-scalar round-off over the signed 512-bit toolkit of int512.h
// (no allocation).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "bigint/u256.h"

namespace ibbe::bigint {

/// D-dimensional decomposition k = sum_i (-1)^neg[i] k[i] l^i (mod n): the
/// shape every endomorphism split in the project returns (D = 2 for the G1
/// GLV split, 4 for this lattice, 1 for a group without an endomorphism).
template <std::size_t D>
struct Decomp {
  std::array<U256, D> k;
  std::array<bool, D> neg;
};
using Decomp4 = Decomp<4>;

struct Lattice4 {
  /// One signed basis entry; magnitudes fit a single limb (the BN bases are
  /// linear in the 63-bit curve parameter u).
  struct Entry {
    std::uint64_t mag;
    bool neg;
  };
  using Basis = std::array<std::array<Entry, 4>, 4>;

  /// The eigenvalue l (< n).
  U256 lambda;
  /// Rows b_j of the basis; |det| = n.
  Basis basis;
  /// ghat[j] = round(2^256 |C_j0| / n) with C_j0 the (j,0) cofactor of the
  /// basis matrix. The Babai coefficient is c_j = k C_j0 / det; csign[j]
  /// carries its sign for k >= 0 (cofactor sign flipped when det = -n).
  std::array<U256, 4> ghat;
  std::array<bool, 4> csign;
  /// Bound on decomposed sub-scalar lengths.
  unsigned max_sub_bits;

  /// Babai round-off of (k, 0, 0, 0) against the basis; requires k < n.
  /// Every |k[i]| is bounded by half the l1-norm of the basis columns
  /// (~2^65 for the BN psi basis, below max_sub_bits). Throws
  /// std::logic_error if a sub-scalar leaves 256 bits.
  [[nodiscard]] Decomp4 decompose(const U256& k) const;
};

}  // namespace ibbe::bigint

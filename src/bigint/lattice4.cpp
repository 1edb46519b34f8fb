#include "bigint/lattice4.h"

#include <stdexcept>

#include "bigint/int512.h"

namespace ibbe::bigint {

Decomp4 Lattice4::decompose(const U256& k) const {
  // Babai round-off: c_j from the precomputed reciprocals (the 2^-256
  // Barrett slack is far below the half-integer rounding margin for
  // k < 2^254), then eps_i = k delta_i0 - sum_j c_j b_ji over signed
  // 512-bit limbs.
  std::array<U256, 4> c;
  for (std::size_t j = 0; j < 4; ++j) {
    c[j] = round_shift_512(mul_wide(k, ghat[j]), 256);
  }
  Decomp4 d;
  for (std::size_t i = 0; i < 4; ++i) {
    S512 eps = i == 0 ? s512_from_u256(k) : S512{};
    for (std::size_t j = 0; j < 4; ++j) {
      const Entry& b = basis[j][i];
      S512 term{mul_wide(c[j], U256::from_u64(b.mag)),
                // sign of -c_j * b_ji with sign(c_j) = csign[j]
                !(csign[j] != b.neg)};
      eps = signed_add(eps, term);
    }
    if (!s512_to_u256(eps, d.k[i])) {
      throw std::logic_error("lattice4: decomposition out of range");
    }
    d.neg[i] = eps.neg;
  }
  return d;
}

}  // namespace ibbe::bigint

#include "pairing/gt_exp.h"

#include <vector>

#include "ec/wnaf.h"

namespace ibbe::pairing {

using field::Fp12;
using field::Fp12Compressed;

namespace {

/// Signed NAF digits of u, least significant first (top digit is +1).
constexpr ec::ConstNaf kUNaf = ec::const_naf(ec::kBnU);

}  // namespace

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

}  // namespace ibbe::pairing

#include "pairing/gt.h"

#include "crypto/sha256.h"
#include "ec/endo.h"
#include "pairing/gt_exp.h"

namespace ibbe::pairing {

Gt Gt::exp(const field::Fr& k) const {
  return Gt(ec::endo_pow<GtOps>(v_, k.to_u256()));
}

std::array<std::uint8_t, 32> Gt::hash() const {
  return crypto::Sha256::hash(to_bytes());
}

}  // namespace ibbe::pairing

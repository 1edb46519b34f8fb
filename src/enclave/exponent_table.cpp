#include "enclave/exponent_table.h"

namespace ibbe::enclave {

std::vector<ExponentTable::Key> ExponentTable::keys_of(
    std::span<const ec::G2> c3s) {
  const auto affine = ec::G2::batch_to_affine(c3s);
  std::vector<Key> keys(affine.size());
  for (std::size_t i = 0; i < affine.size(); ++i) {
    ec::g2_affine_to_bytes(affine[i], keys[i]);
  }
  return keys;
}

std::optional<field::Fr> ExponentTable::lookup(const Key& key) {
  if (auto it = current_.find(key); it != current_.end()) return it->second;
  auto it = previous_.find(key);
  if (it == previous_.end()) return std::nullopt;
  const field::Fr s = it->second;
  previous_.erase(it);
  insert(key, s);
  return s;
}

void ExponentTable::insert(const Key& key, const field::Fr& s) {
  previous_.erase(key);
  current_.insert_or_assign(key, s);
  if (current_.size() >= generation) {
    previous_ = std::move(current_);
    current_.clear();
  }
}

void ExponentTable::erase(const Key& key) {
  current_.erase(key);
  previous_.erase(key);
}

}  // namespace ibbe::enclave

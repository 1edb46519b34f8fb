// The enclave's memory of partition exponents: C3 -> s with C3 = h^s.
//
// A partition's exponent s = prod_{u in p}(gamma + H(u)) is what the MSK
// buys the enclave: with it, a re-key is C2 = h^(k s) on the key's fixed
// h comb instead of a variable-base C3^k. The enclave computes s whenever it
// builds or changes a C3 and records it here, keyed by C3's encoding. Since
// h generates a group of prime order, C3 determines s, so a lookup by any
// host-supplied C3 returns either nothing or the one s with C3 = h^s: a host
// cannot plant a wrong exponent, only miss.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "ec/curves.h"
#include "field/fields.h"

namespace ibbe::enclave {

/// C3 -> s, bounded as two generations. Inserts go to the current map; once
/// it holds `generation` entries it becomes the previous one and the old
/// previous map is dropped. A hit in the previous generation moves the entry
/// back to the current one, so the partitions a group keeps re-keying
/// survive and abandoned C3s (a rebuilt group's old partitions) age out.
/// At most 2 * generation entries. Not thread-safe: IbbeEnclave holds it
/// under a mutex.
class ExponentTable {
 public:
  using Key = std::array<std::uint8_t, ec::g2_serialized_size>;

  /// Entries per generation: 4096 partitions (4·10⁶ members at
  /// |p| = 1000) stay warm; the table stays under ~1.1 MB.
  static constexpr std::size_t generation = 4096;
  /// EPC bill per entry: the key, s, and a red-black tree node's pointers
  /// and colour.
  static constexpr std::size_t entry_bytes =
      sizeof(Key) + sizeof(field::Fr) + 4 * sizeof(void*);

  /// The encodings of `c3s`, normalized with one batch inversion.
  static std::vector<Key> keys_of(std::span<const ec::G2> c3s);

  /// s for `key`, if recorded; a hit in the previous generation moves the
  /// entry to the current one.
  std::optional<field::Fr> lookup(const Key& key);
  void insert(const Key& key, const field::Fr& s);
  void erase(const Key& key);

  [[nodiscard]] std::size_t size() const {
    return current_.size() + previous_.size();
  }
  [[nodiscard]] std::size_t bytes() const { return size() * entry_bytes; }

 private:
  std::map<Key, field::Fr> current_;
  std::map<Key, field::Fr> previous_;
};

}  // namespace ibbe::enclave

// HE-IBE baseline: Hybrid Encryption with Boneh-Franklin identity-based
// encryption (adapted to the type-3 BN254 pairing; identities hash into G1,
// the system key lives in G2).
//
//   TA:       s in Zr*, Ppub = s*P2
//   Extract:  d_id = s*H1(id) in G1
//   Encrypt:  r in Zr*; U = r*P2; key = SHA-256(e(H1(id), Ppub)^r);
//             body = AES-GCM_key(gk)
//   Decrypt:  key = SHA-256(e(d_id, U))  [= same pairing value]
//
// One pairing per member per encryption — the order-of-magnitude gap over
// HE-PKI that Fig. 2 of the paper shows.
#pragma once

#include <array>
#include <map>

#include "crypto/drbg.h"
#include "he/scheme.h"
#include "pairing/pairing.h"

namespace ibbe::he {

class HeIbeScheme : public GroupScheme {
 public:
  explicit HeIbeScheme(std::uint64_t seed = 0);

  [[nodiscard]] std::string name() const override { return "HE-IBE"; }
  void create_group(std::span<const core::Identity> members) override;
  void add_user(const core::Identity& id) override;
  void remove_user(const core::Identity& id) override;
  [[nodiscard]] std::optional<util::Bytes> user_decrypt(
      const core::Identity& id) override;
  [[nodiscard]] std::size_t metadata_size() const override;
  [[nodiscard]] std::size_t group_size() const override { return entries_.size(); }

  /// SHA-256 over the whole entry table (id, U, body) in map order — a
  /// compact fingerprint of every granted credential, compared bitwise by
  /// the parallel-equivalence tests across thread counts.
  [[nodiscard]] std::array<std::uint8_t, 32> entries_digest() const;

 private:
  struct Entry {
    util::Bytes u_bytes;  // compressed G2 point U = r*P2
    util::Bytes body;     // AES-GCM(gk) under the pairing-derived key
  };

  /// TA key extraction, memoized per identity.
  const ec::G1& user_key(const core::Identity& id);
  void grant(const core::Identity& id);
  /// Bulk grant (group creation / post-revocation re-key): per-member Miller
  /// loops against the prepared Ppub, then one batched final exponentiation.
  void grant_many(std::span<const core::Identity> ids);

  crypto::Drbg rng_;
  util::Bytes gk_;
  field::Fr master_s_;
  ec::G2 p_pub_;
  /// Line-table precomputation for the fixed Ppub argument — every grant()
  /// pairs against it, so the Miller loop's G2 work is paid once per scheme.
  pairing::G2Prepared p_pub_prepared_;
  std::map<core::Identity, ec::G1> extracted_;  // d_id cache (TA side)
  std::map<core::Identity, Entry> entries_;
};

}  // namespace ibbe::he

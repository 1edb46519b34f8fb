// Identity-Based Broadcast Encryption (Delerablée, ASIACRYPT 2007) with the
// IBBE-SGX master-secret fast paths of Contiu et al. (DSN 2018, Appendix A).
//
// Keys and ciphertexts:
//   MSK = (g, gamma)                      g random in G1, gamma random in Zr*
//   PK  = (w = g^gamma, v = e(g,h), h, h^gamma, ..., h^gamma^m)
//   USK_u = g^(1/(gamma + H(u)))
//   For receiver set S with randomizer k:
//     bk = v^k                                      (the broadcast key)
//     C1 = w^(-k)
//     C2 = h^(k * prod_{u in S}(gamma + H(u)))
//     C3 = h^(prod_{u in S}(gamma + H(u)))          (paper's Formula 5 cache)
//   The product s = prod_{u in S}(gamma + H(u)) is the partition's secret
//   exponent: C3 = h^s, C2 = h^(k s). Only the MSK holder can compute it.
//
// Complexities (Table I of the paper):
//   encrypt_with_msk      O(|S|)   — gamma collapses the product to Zr mults
//   encrypt_public        O(|S|^2) — polynomial expansion over the PK powers
//   add_user_with_msk     O(1)     — C{2,3} <- C{2,3}^(gamma+H(u))
//   remove_users_with_msk O(k)     — C3 <- C3^(1/prod(gamma+H(u))), then
//                                    re-key; k = 1 is the paper's O(1) removal
//   rekey                 O(1)     — fresh k applied to the cached C3 (PK only):
//                                    C2 = C3^k, a variable-base G2 mul
//   encrypt_with_exponent O(1)     — C3 = h^s and C2 = h^(k s) on the h comb,
//                                    for a caller holding s: fixed-base muls
//                                    about half the variable-base cost
//   decrypt               O(|S|^2) — polynomial expansion, then 2 pairings
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "ec/curves.h"
#include "ec/endo.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "field/fields.h"
#include "pairing/gt_exp.h"
#include "pairing/pairing.h"
#include "util/bytes.h"

namespace ibbe::core {

using Identity = std::string;

/// H: identity -> Zr*. SHA-256 with rejection of zero.
field::Fr hash_identity(const Identity& id);

/// The canonical randomizer draw: 32 DRBG bytes reduced into Zr, redrawn on
/// zero. Every k this module consumes comes through here, so a caller that
/// needs to PRE-DRAW randomizers (e.g. to fan per-partition work out to a
/// thread pool while keeping the DRBG serial) can pull them in the exact
/// order the serial code would and pass them to the explicit-k overloads
/// below — the outputs stay bitwise-identical.
field::Fr random_nonzero_fr(crypto::Drbg& rng);

struct MasterSecretKey {
  ec::G1 g;
  field::Fr gamma;
};

/// PublicKey::fixed_base_tables(): the combs of ec/endo.h for v (GT,
/// 432 KiB) and w (G1, 50 688 B).
struct FixedBaseTables {
  FixedBaseTables(const pairing::Gt& v_base, const ec::G1& w_base)
      : v(v_base.value()), w(w_base) {}

  ec::Comb<pairing::GtOps> v;
  ec::Comb<ec::G1Ops> w;

  /// Heap bytes held by both tables (the enclave bills them to its EPC).
  [[nodiscard]] std::size_t bytes() const {
    return v.table_bytes() + w.table_bytes();
  }
};

struct PublicKey {
  ec::G1 w;                       // g^gamma
  pairing::Gt v;                  // e(g, h)
  std::vector<ec::G2> h_powers;   // h^(gamma^i), i = 0..m; h_powers[0] = h

  [[nodiscard]] const ec::G2& h() const { return h_powers.at(0); }
  /// Largest receiver set this key supports (the paper's m: the partition
  /// size in IBBE-SGX, the group size in raw IBBE).
  [[nodiscard]] std::size_t max_receivers() const { return h_powers.size() - 1; }

  /// Pairing precomputation (Miller-loop line tables) for h = h_powers[0]
  /// and h^gamma = h_powers[1] — the two fixed G2 arguments every
  /// verify_user_key pairing uses. Built lazily on first use (concurrent
  /// first calls race benignly: one table wins) and cached for the lifetime
  /// of this key — rebuild the key if h_powers change.
  [[nodiscard]] const pairing::G2Prepared& prepared_h() const;
  [[nodiscard]] const pairing::G2Prepared& prepared_h_gamma() const;

  /// Prepared multi-scalar-multiplication tables over the first `need`
  /// h_powers (grown to the full key once `need` passes half of it), for the
  /// Σ coef_i * h^(gamma^i) sums in encrypt/decrypt. Built lazily, cached
  /// with the same benign-race discipline as the pairing tables above.
  [[nodiscard]] std::shared_ptr<const ec::G2PowersMsm> powers_msm(
      std::size_t need) const;

  /// Fixed-base tables for v and w, the two PK elements every encrypt,
  /// removal and re-key raises to its randomizer (bk = v^k, C1 = w^(-k)).
  /// Built once on first use with the same double-checked init as
  /// prepared_h; a caller about to fan encrypts out to the pool touches this
  /// first, so the workers share one copy instead of racing to build several.
  [[nodiscard]] const FixedBaseTables& fixed_base_tables() const;

  /// Fixed-base comb for h, the third base: encrypt_with_exponent computes
  /// C3 = h^s and C2 = h^(k s) through it. Kept apart from
  /// fixed_base_tables() because only a caller holding exponents repays its
  /// build (~4 ms at one thread, 153 KiB): the enclave builds it on its
  /// first join or revocation, not at group creation. Same double-checked
  /// init.
  [[nodiscard]] const ec::Comb<ec::G2Ops>& h_comb() const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static PublicKey from_bytes(std::span<const std::uint8_t> data);

 private:
  mutable std::shared_ptr<const pairing::G2Prepared> prep_h_;
  mutable std::shared_ptr<const pairing::G2Prepared> prep_h_gamma_;
  mutable std::shared_ptr<const ec::G2PowersMsm> prep_msm_;
  mutable std::shared_ptr<const FixedBaseTables> fixed_;
  mutable std::shared_ptr<const ec::Comb<ec::G2Ops>> h_comb_;
};

struct UserSecretKey {
  Identity id;
  ec::G1 value;  // g^(1/(gamma+H(id)))

  [[nodiscard]] util::Bytes to_bytes() const;
  static UserSecretKey from_bytes(std::span<const std::uint8_t> data);
};

struct BroadcastCiphertext {
  ec::G1 c1;
  ec::G2 c2;
  ec::G2 c3;

  [[nodiscard]] util::Bytes to_bytes() const;
  static BroadcastCiphertext from_bytes(std::span<const std::uint8_t> data);
  static constexpr std::size_t serialized_size =
      ec::g1_serialized_size + 2 * ec::g2_serialized_size;
};

struct SystemKeys {
  MasterSecretKey msk;
  PublicKey pk;
};

/// System Setup(lambda, m): lambda is fixed by the BN254 instantiation
/// (~100-bit); m bounds the receiver-set size. O(m) G2 exponentiations.
SystemKeys setup(std::size_t max_receivers, crypto::Drbg& rng);

/// Extract User Secret: O(1).
UserSecretKey extract_user_key(const MasterSecretKey& msk, const Identity& id);

struct EncryptResult {
  pairing::Gt bk;
  BroadcastCiphertext ct;
};

/// IBBE-SGX encrypt: uses gamma, O(|S|). Throws if |S| exceeds
/// pk.max_receivers() or S is empty.
EncryptResult encrypt_with_msk(const MasterSecretKey& msk, const PublicKey& pk,
                               std::span<const Identity> receivers,
                               crypto::Drbg& rng);

/// Deterministic variant taking the randomizer explicitly (k must be a
/// random_nonzero_fr draw). Lets a parallel caller pre-draw every k on its
/// own thread and fan the O(|S|) arithmetic out; identical output to the
/// rng overload given the same k. A non-null `exponent` receives the
/// partition exponent s (C3 = h^s) computed on the way.
EncryptResult encrypt_with_msk(const MasterSecretKey& msk, const PublicKey& pk,
                               std::span<const Identity> receivers,
                               const field::Fr& k,
                               field::Fr* exponent = nullptr);

/// prod_{u in ids}(gamma + H(u)): a receiver set's exponent s, or the factor
/// a removal divides out of it. O(|ids|) hashes and Zr multiplications.
field::Fr partition_exponent(const MasterSecretKey& msk,
                             std::span<const Identity> ids);

/// Traditional IBBE encrypt: PK only, O(|S|^2) (quadratic polynomial
/// expansion, Formula 4 of the paper). Same output distribution as
/// encrypt_with_msk.
EncryptResult encrypt_public(const PublicKey& pk,
                             std::span<const Identity> receivers,
                             crypto::Drbg& rng);

/// O(1) membership addition (MSK path): folds (gamma + H(id)) into C2 and C3
/// and returns that factor, the partition exponent's new term. bk is
/// unchanged, so the joiner may read prior ciphertexts (the paper re-keys
/// only on revocation; the enclave's join re-keys as well).
field::Fr add_user_with_msk(const MasterSecretKey& msk,
                            BroadcastCiphertext& ct, const Identity& added);

/// Membership removal (MSK path): divides the product prod(gamma + H(id))
/// over `removed` out of C3 and re-keys; returns the fresh bk. With one
/// identity this is Algorithm 3's O(1) removal, C3 <- C3^(1/(gamma+H(u)));
/// k identities cost O(k) Zr work and still a single G2 exponentiation
/// (batch revocation, an extension along the paper's future-work axis).
EncryptResult remove_users_with_msk(const MasterSecretKey& msk,
                                    const PublicKey& pk,
                                    const BroadcastCiphertext& ct,
                                    std::span<const Identity> removed,
                                    crypto::Drbg& rng);

/// Explicit-randomizer variant of remove_users_with_msk.
EncryptResult remove_users_with_msk(const MasterSecretKey& msk,
                                    const PublicKey& pk,
                                    const BroadcastCiphertext& ct,
                                    std::span<const Identity> removed,
                                    const field::Fr& k);

/// O(1) re-key (PK only, Appendix A-G): fresh k over the cached C3.
EncryptResult rekey(const PublicKey& pk, const BroadcastCiphertext& ct,
                    crypto::Drbg& rng);

/// Explicit-randomizer variant of rekey.
EncryptResult rekey(const PublicKey& pk, const BroadcastCiphertext& ct,
                    const field::Fr& k);

/// The explicit-exponent path, for a caller that knows a partition's
/// exponent s (the enclave keeps it in its partition records): C3 = h^s and
/// C2 = h^(k s) on pk.h_comb(), bk and C1 on the fixed-base tables. Given
/// the same s and k the bytes equal the MSK/PK paths' (C3 fixes s).
/// A fresh ciphertext for exponent s: C3 = h^s, C2 = h^(k s). Equals
/// encrypt_with_msk for a set with exponent s, and remove_users_with_msk for
/// the exponent left after the removal, s / partition_exponent(removed).
EncryptResult encrypt_with_exponent(const PublicKey& pk, const field::Fr& s,
                                    const field::Fr& k);

/// User-side decrypt: PreparedPartition::prepare (O(|S|^2)) followed by
/// decrypt(const PreparedPartition&, ct) — a 2-pair multi-pairing (shared
/// Miller-loop squarings and a single final exponentiation). Returns the
/// broadcast key; std::nullopt if `usk.id` is not in `receivers` or the set
/// exceeds the PK bound. (A wrong-but-well-formed ciphertext still yields a
/// wrong bk — callers authenticate via the AEAD wrap above this layer,
/// exactly as the paper's y_p does.)
std::optional<pairing::Gt> decrypt(const PublicKey& pk,
                                   const UserSecretKey& usk,
                                   std::span<const Identity> receivers,
                                   const BroadcastCiphertext& ct);

/// Decrypt state for one (user, receiver set) pair — the partition key of
/// IBBE-SGX. Everything that depends only on the receiver set:
///   * the O(|S|^2) polynomial expansion and 1/Delta,
///   * h^{p_i(gamma)/Delta} assembled from the PK powers (one MSM over the
///     p_i coefficients scaled by 1/Delta) and its Miller line table, and
///   * USK^{1/Delta} (one G1 multiplication).
/// Folding 1/Delta into both pairing arguments is bilinearity:
/// (e(C1, h^p_i) e(USK, C2))^(1/Delta) = e(C1, h^(p_i/Delta)) e(USK^(1/Delta), C2),
/// so the per-decrypt work has no GT exponentiation.
/// Every decrypt goes through one; a client that decrypts the same partition
/// repeatedly (every re-key, every message under a cached C3) can keep it,
/// so only the ciphertext-dependent C2 table remains per-decrypt. The cache
/// is invalidated by membership changes (C3 changes), not by re-keying.
class PreparedPartition {
 public:
  /// std::nullopt when usk.id is not in `receivers` or the set exceeds the
  /// PK bound — exactly the cases where decrypt would return nullopt.
  static std::optional<PreparedPartition> prepare(
      const PublicKey& pk, const UserSecretKey& usk,
      std::span<const Identity> receivers);

  /// USK^(1/Delta).
  [[nodiscard]] const ec::G1& usk_scaled() const { return usk_scaled_; }
  /// Line table of h^(p_i(gamma)/Delta).
  [[nodiscard]] const pairing::G2Prepared& h_pi() const { return h_pi_; }

 private:
  PreparedPartition() = default;
  ec::G1 usk_scaled_;
  pairing::G2Prepared h_pi_;
};

/// Decrypt against a PreparedPartition: one G2Prepared (C2) and a 2-pair
/// multi-pairing. Equals what decrypt(pk, usk, receivers, ct) returns for
/// the receiver set the partition was prepared from.
pairing::Gt decrypt(const PreparedPartition& part,
                    const BroadcastCiphertext& ct);

/// Rebuilds C3 = h^(prod (gamma+H(u))) from the public key alone (paper
/// Formula 5 remark) — O(|S|^2). Used to validate cached C3 values in tests.
ec::G2 compute_c3_public(const PublicKey& pk, std::span<const Identity> receivers);

/// Pairing check e(USK, h^gamma) * e(USK^H(id), h) == v (the bilinear
/// rewrite of e(USK, h^gamma * h^H(id)) == v) that lets a user validate a
/// provisioned key against the public system parameters (guards against a
/// rogue key issuer handing out garbage). Both G2 arguments are fixed PK
/// powers, so repeated checks reuse the PK's cached G2Prepared line tables
/// instead of paying a G2 scalar multiplication and Miller-loop point
/// arithmetic per call.
bool verify_user_key(const PublicKey& pk, const UserSecretKey& usk);

}  // namespace ibbe::core

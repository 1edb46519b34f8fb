// The IBBE-SGX enclave image.
//
// Holds the Master Secret Key and exposes exactly the enclaved blocks of the
// paper's Algorithms 1-3 as ECALLs. What leaves the boundary is public by
// construction: partition ciphertexts (C1, C2, C3), AEAD-wrapped group keys
// y_p, sealed gk blobs, and the system public key. Neither gk, nor any
// partition broadcast key bk, nor gamma ever cross in plaintext — this is the
// zero-knowledge property the scheme claims against curious administrators,
// enforced here by the type of the API.
//
// ECALLs may run concurrently on one enclave: each draws its randomness in
// one locked run of the DRBG, and the lazily built PK tables and the EPC
// meter are thread-safe.
#pragma once

#include <mutex>
#include <vector>

#include "crypto/gcm.h"
#include "ibbe/ibbe.h"
#include "pki/ecdsa.h"
#include "sgx/enclave.h"

namespace ibbe::enclave {

/// Per-partition public metadata produced inside the enclave: the broadcast
/// ciphertext plus the wrapped group key y_p = AES-GCM(SHA-256(bk_p), gk).
struct PartitionCiphertext {
  core::BroadcastCiphertext ct;
  util::Bytes wrapped_gk;  // GCM ciphertext || tag
  util::Bytes nonce;       // 12-byte GCM nonce

  [[nodiscard]] util::Bytes to_bytes() const;
  static PartitionCiphertext from_bytes(std::span<const std::uint8_t> data);

  /// Appends to_bytes() to `w`, given the ciphertext already encoded
  /// (`ct_bytes`, as ct.to_bytes() would write it). The one place the entry
  /// layout lives; the bundle encode supplies batch-normalized points.
  void write(util::ByteWriter& w, std::span<const std::uint8_t> ct_bytes) const;
  /// to_bytes().size(), without encoding.
  [[nodiscard]] std::size_t serialized_size() const {
    return core::BroadcastCiphertext::serialized_size + 8 + wrapped_gk.size() +
           nonce.size();
  }
};

/// Enclave-signed freshness attestation (ROTE-style rollback defense). The
/// enclave binds a group's commit to a platform monotonic counter: the token
/// vouches "counter C was attested for group g together with gk epoch E and
/// op-log head H". It is stored INSIDE the committed index (same signature,
/// same CAS), so a Byzantine cloud cannot tear the token from the state it
/// vouches for; it can only replay a whole old (index, token) pair — which
/// any verifier with a higher-water mark, a fresher peer observation, or the
/// attesting platform itself then detects as a rollback.
struct FreshnessToken {
  std::uint64_t counter = 0;  // 0 = no attestation (pre-freshness metadata)
  std::uint64_t gk_epoch = 0;
  std::array<std::uint8_t, 32> log_head{};
  pki::EcdsaSignature signature;  // by the enclave identity key

  /// Fixed wire size: counter + gk_epoch + log_head + signature.
  static constexpr std::size_t serialized_size =
      8 + 8 + 32 + pki::EcdsaSignature::serialized_size;

  [[nodiscard]] util::Bytes signed_payload(const std::string& group) const;
  [[nodiscard]] bool verify(const ec::P256Point& enclave_identity,
                            const std::string& group) const;

  [[nodiscard]] util::Bytes to_bytes() const;
  static FreshnessToken from_bytes(std::span<const std::uint8_t> data);
};

class IbbeEnclave : public sgx::EnclaveBase {
 public:
  /// Loads the enclave and runs IBBE System Setup inside it, sized for
  /// partitions of at most `max_partition_size` users. O(m).
  IbbeEnclave(sgx::EnclavePlatform& platform, std::size_t max_partition_size);

  /// Deterministic-DRBG variant (see the seeded EnclaveBase constructor):
  /// two same-seed enclaves on one platform produce bitwise-identical
  /// partition ciphertexts, which the parallel-equivalence tests rely on.
  /// Sealed blobs still differ per call (seal nonces come from platform
  /// entropy, not the enclave DRBG).
  IbbeEnclave(sgx::EnclavePlatform& platform, std::size_t max_partition_size,
              std::uint64_t rng_seed);

  /// Build descriptor used for the expected-measurement check by auditors.
  static sgx::EnclaveImage image();

  // ---- public (untrusted-readable) outputs -------------------------------

  /// IBBE public key: usable by anyone, including non-SGX clients.
  [[nodiscard]] const core::PublicKey& public_key() const { return keys_.pk; }

  /// The enclave's provisioning/identity public key (generated inside).
  [[nodiscard]] util::Bytes identity_public_key() const;

  /// Quote binding the identity key to the measurement (report data =
  /// SHA-256 of the public key), for the Fig. 3 attestation flow.
  [[nodiscard]] sgx::Quote attestation_quote() const;

  // ---- ECALLs ------------------------------------------------------------

  // Partition records (README.md): with every partition it creates or
  // re-keys, the enclave returns nonce || AES-GCM(K_rec, SHA-256(bk) || s),
  // K_rec = HKDF(gamma), AAD = pid || C1's encoding; s is the exponent
  // (C3 = h^s), zero if unknown. The admin keeps records and never uploads
  // them. A missing or refused one costs its partition a full re-key.

  /// A partition as the untrusted side holds it: its stable id, ciphertext
  /// and the record the enclave last returned for it (empty if none).
  struct PartitionHandle {
    std::uint64_t pid = 0;
    core::BroadcastCiphertext ct;
    util::Bytes record;
  };
  /// One partition the enclave created or re-keyed, and its fresh record.
  struct PartitionUpdate {
    PartitionCiphertext cipher;
    util::Bytes record;
  };

  struct GroupCreation {
    std::vector<PartitionCiphertext> partitions;
    std::vector<util::Bytes> records;  // records[i] for partitions[i]
    sgx::SealedBlob sealed_gk;
  };
  /// Algorithm 1 (enclaved block): fresh gk, one IBBE encrypt per partition,
  /// gk wrapped under every partition broadcast key and sealed for the
  /// admin cache. `pids[i]` is the admin's stable id for `partitions[i]`.
  [[nodiscard]] GroupCreation ecall_create_group(
      std::span<const std::uint64_t> pids,
      std::span<const std::vector<core::Identity>> partitions);

  /// Algorithm 2, fast path (lines 9-12), plus a fresh k: C3 gains
  /// (gamma + H(added)) and the sealed gk is wrapped under the new bk, which
  /// never wrapped an earlier gk (backward secrecy). With a record, C3 and
  /// C2 come from the comb for h; without, from the host's C3.
  [[nodiscard]] PartitionUpdate ecall_add_user_to_partition(
      const PartitionHandle& partition, const core::Identity& added,
      const sgx::SealedBlob& sealed_gk);

  /// Algorithm 2, slow path (lines 3-7): brand-new partition `pid` wrapping
  /// the *existing* group key (unsealed inside). O(|members|).
  [[nodiscard]] PartitionUpdate ecall_create_partition(
      std::uint64_t pid, std::span<const core::Identity> members,
      const sgx::SealedBlob& sealed_gk);

  /// Algorithm 3 (enclaved block), batched, re-keying only the partitions
  /// that lost a member (a two-level logical key hierarchy, Wong, Gouda and
  /// Lam, SIGCOMM '98). Fresh gk. Each host (a partition, for the set
  /// *including* its `removed` users) gets s' = s / prod(gamma + H(removed))
  /// and a fresh k: new C1, C2, C3 and bk. Every other partition keeps C1-C3
  /// and gets gk sealed under its unchanged SHA-256(bk), from its record,
  /// with a fresh nonce: only past and present members can derive a
  /// partition's bk, and a removal from it re-keys it. Without a usable
  /// record a host divides the host-supplied C3 and any other partition is
  /// re-keyed over it (`core::rekey`). k revocations cost one rotation.
  struct BatchRemovalSpec {
    PartitionHandle partition;
    std::vector<core::Identity> removed;
  };
  struct RemovalResult {
    /// The hosts first, in the order of `hosts`, then the rest in the input
    /// order of `other_partitions`.
    std::vector<PartitionCiphertext> partitions;
    /// records[i] for partitions[i]; empty where the input record stands.
    std::vector<util::Bytes> records;
    sgx::SealedBlob sealed_gk;
  };
  [[nodiscard]] RemovalResult ecall_remove_users(
      std::span<const BatchRemovalSpec> hosts,
      std::span<const PartitionHandle> other_partitions);

  /// Extract User Secret (paper section IV-B op 2). Raw form — callers are
  /// the provisioning path below and the test/bench harnesses.
  [[nodiscard]] core::UserSecretKey ecall_extract_user_key(
      const core::Identity& id);

  /// Fig. 3 step 4: extraction + ECIES encryption to the user's key, so the
  /// USK never crosses the boundary in plaintext.
  [[nodiscard]] util::Bytes ecall_provision_user_key(
      const core::Identity& id, std::span<const std::uint8_t> user_p256_pub);

  // ---- freshness anchoring (rollback defense, docs/fault_model.md) -------
  //
  // Two-phase protocol around the admin's index CAS:
  //   1. ecall_attest_freshness signs a TENTATIVE counter — one above the
  //      highest of the platform counter and the caller's floor — without
  //      persisting it. A CAS that then loses the race simply abandons the
  //      token; the platform counter is untouched, so no gap opens between
  //      "highest committed" and "highest confirmed".
  //   2. ecall_confirm_freshness persists the counter (raise-to semantics)
  //      only after the CAS landed. From then on any index carrying a lower
  //      counter is, to this platform, proof of rollback.
  // ecall_freshness_floor exposes the confirmed value so the untrusted admin
  // can check a freshly synced view against it after a restart.

  /// Signs a tentative freshness token for `group` binding (counter,
  /// gk_epoch, log_head). Does NOT advance the platform counter.
  [[nodiscard]] FreshnessToken ecall_attest_freshness(
      const std::string& group, std::uint64_t floor, std::uint64_t gk_epoch,
      const std::array<std::uint8_t, 32>& log_head);

  /// Persists `counter` for `group` after its index CAS committed (raises
  /// the platform counter; never lowers it).
  void ecall_confirm_freshness(const std::string& group, std::uint64_t counter);

  /// Highest counter this platform has confirmed for `group` (0 = none).
  [[nodiscard]] std::uint64_t ecall_freshness_floor(const std::string& group) const;

  /// Verification key for freshness tokens: the enclave identity key, whose
  /// genuineness clients establish once via attestation_quote().
  [[nodiscard]] const ec::P256Point& freshness_verification_key() const {
    return identity_key_.public_key();
  }

 private:
  /// Algorithm 1's per-partition work: a fresh k, y_p wrapping `gk` and a
  /// record each. Leaves sealed_gk empty.
  [[nodiscard]] GroupCreation encrypt_partitions(
      std::span<const std::uint64_t> pids,
      std::span<const std::vector<core::Identity>> partitions,
      std::span<const std::uint8_t> gk);
  /// Platform counter name for a group, scoped by this build's measurement.
  [[nodiscard]] std::string freshness_counter_name(const std::string& group) const;
  /// keys_.pk with its fixed-base tables for v and w built. Every encrypting
  /// ECALL calls this on the ECALL thread before it fans out, so the pool
  /// workers share one copy; the first call bills the tables to the EPC.
  const core::PublicKey& pk_with_tables();
  /// pk_with_tables() plus the comb for h, built and billed the same way by
  /// the first ECALL that encrypts from a known exponent.
  const core::PublicKey& pk_with_h_comb();

  // ---- enclave-private state (never crosses the boundary) ----
  core::SystemKeys keys_;
  pki::EcdsaKeyPair identity_key_;
  crypto::Aes256Gcm record_key_;  // K_rec, derived from gamma
  std::once_flag tables_billed_;
  std::once_flag h_comb_billed_;
  std::mutex draw_mutex_;  // one ECALL's DRBG draws at a time
};

/// Size of the group key generated inside the enclave.
constexpr std::size_t group_key_size = 32;

}  // namespace ibbe::enclave

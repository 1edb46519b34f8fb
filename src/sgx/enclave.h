// Simulated Intel SGX platform and enclave runtime.
//
// What the paper gets from real SGX hardware and what this simulator
// preserves:
//
//   * Isolation      — enclave state is private C++ state reachable only via
//                      the ECALL methods of the derived enclave class; an
//                      EcallScope guard meters every boundary crossing.
//   * Measurement    — MRENCLAVE is the SHA-256 of the enclave image
//                      descriptor (name, version, code hash).
//   * Sealing        — AES-256-GCM under a key derived (HKDF) from the
//                      platform's fuse key and the measurement: a blob sealed
//                      by one enclave build cannot be opened by another, and
//                      not by any code outside an enclave of that build.
//   * Attestation    — quotes (measurement + report data) signed by the
//                      platform's Quoting Enclave key, verified by the
//                      simulated Intel Attestation Service (attestation.h).
//   * EPC pressure   — an allocation meter with the 128 MB EPC limit of the
//                      paper's SGX v1 hardware; benches report peak usage
//                      (the simulator does not fake paging slowdowns).
//   * Monotonic ctrs — a per-platform replay-protected counter service (the
//                      paper's hardware exposes SGX PSE counters; ROTE-style
//                      designs distribute them). Counters only ever move
//                      forward and survive enclave restarts on the same
//                      platform — the anchor the freshness defense
//                      (docs/fault_model.md) builds on.
//
// The deliberate difference: there is no hardware trust root — this is a
// functional model for running and measuring the scheme, not a secure
// boundary against a real co-resident adversary.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "crypto/drbg.h"
#include "pki/ecdsa.h"
#include "util/bytes.h"

namespace ibbe::sgx {

using Measurement = std::array<std::uint8_t, 32>;

/// A sealed blob: AEAD ciphertext bound to the sealing enclave's measurement
/// (MRENCLAVE policy).
struct SealedBlob {
  Measurement measurement{};
  util::Bytes nonce;       // 12 bytes
  util::Bytes ciphertext;  // includes the 16-byte GCM tag

  [[nodiscard]] util::Bytes to_bytes() const;
  static SealedBlob from_bytes(std::span<const std::uint8_t> data);
};

/// An attestation quote: proof that `measurement` runs on a genuine platform,
/// with `report_data` chosen by the enclave (here: SHA-256 of its public key).
struct Quote {
  Measurement measurement{};
  util::Bytes report_data;
  std::string platform_id;
  pki::EcdsaSignature signature;  // by the platform's QE key

  [[nodiscard]] util::Bytes signed_payload() const;
  [[nodiscard]] util::Bytes to_bytes() const;
  static Quote from_bytes(std::span<const std::uint8_t> data);
};

/// One simulated SGX-capable machine: fuse key + quoting-enclave key.
class EnclavePlatform {
 public:
  explicit EnclavePlatform(std::string platform_id);

  [[nodiscard]] const std::string& platform_id() const { return platform_id_; }
  [[nodiscard]] const ec::P256Point& qe_public_key() const {
    return qe_key_.public_key();
  }

  /// Produces a signed quote for an enclave measurement hosted here.
  [[nodiscard]] Quote quote(const Measurement& measurement,
                            util::Bytes report_data) const;

  /// Derives the sealing key for a measurement (fuse key never leaves).
  [[nodiscard]] util::Bytes sealing_key(const Measurement& measurement) const;

  // ---- replay-protected monotonic counters (models SGX PSE / ROTE) ----
  /// Current value of the named counter (0 if never advanced). Counters
  /// survive enclave restarts: they belong to the platform, not the enclave
  /// instance, exactly like the hardware's NVRAM-backed counters.
  [[nodiscard]] std::uint64_t counter_read(const std::string& name) const;
  /// Raises the named counter to `at_least` if it is below it (counters can
  /// only move forward) and returns the resulting value.
  std::uint64_t counter_advance(const std::string& name, std::uint64_t at_least);

 private:
  std::string platform_id_;
  util::Bytes fuse_key_;  // 32 bytes, unique per machine
  pki::EcdsaKeyPair qe_key_;
  mutable std::mutex counter_mutex_;
  std::map<std::string, std::uint64_t> counters_;
};

/// Descriptor hashed into the measurement.
struct EnclaveImage {
  std::string name;
  std::string version;
  /// Stand-in for the code pages; two builds differ here.
  util::Bytes code_hash;

  [[nodiscard]] Measurement measure() const;
};

/// Base class for simulated enclaves. Derived classes hold the private state
/// and expose ECALLs as methods that open an EcallScope.
class EnclaveBase {
 public:
  EnclaveBase(EnclavePlatform& platform, const EnclaveImage& image);
  /// Test/bench constructor with a deterministic in-enclave DRBG: two
  /// same-seed enclaves of the same image produce identical randomized
  /// outputs (up to platform entropy, e.g. seal nonces), which is what the
  /// parallel-equivalence suite compares bitwise.
  EnclaveBase(EnclavePlatform& platform, const EnclaveImage& image,
              std::uint64_t rng_seed);
  virtual ~EnclaveBase() = default;

  EnclaveBase(const EnclaveBase&) = delete;
  EnclaveBase& operator=(const EnclaveBase&) = delete;

  [[nodiscard]] const Measurement& measurement() const { return measurement_; }

  // ---- instrumentation (readable from untrusted code) ----
  [[nodiscard]] std::uint64_t ecall_count() const { return ecall_count_; }
  [[nodiscard]] std::size_t epc_bytes_used() const;
  [[nodiscard]] std::size_t epc_bytes_peak() const;
  /// SGX v1 EPC size on the paper's hardware.
  static constexpr std::size_t epc_limit = 128u * 1024 * 1024;

  /// Quote over caller-chosen report data (delegates to the platform QE).
  [[nodiscard]] Quote generate_quote(util::Bytes report_data) const;

 protected:
  /// RAII boundary-crossing marker; every public ECALL opens one.
  class EcallScope {
   public:
    explicit EcallScope(const EnclaveBase& enclave) {
      ++enclave.ecall_count_;
    }
  };

  [[nodiscard]] SealedBlob seal(std::span<const std::uint8_t> plaintext) const;
  /// std::nullopt if the blob was sealed by a different measurement or is
  /// corrupted.
  [[nodiscard]] std::optional<util::Bytes> unseal(const SealedBlob& blob) const;

  /// In-enclave randomness (models RDRAND inside the enclave).
  [[nodiscard]] crypto::Drbg& enclave_rng() { return rng_; }

  /// The hosting platform's services beyond sealing/quoting (derived
  /// enclaves reach the monotonic-counter service through this).
  [[nodiscard]] EnclavePlatform& platform() { return platform_; }
  [[nodiscard]] const EnclavePlatform& platform() const { return platform_; }

  /// EPC accounting hooks for derived enclaves' long-lived state. Safe to
  /// call from concurrent ECALLs.
  void epc_alloc(std::size_t bytes);
  void epc_free(std::size_t bytes);

 private:
  EnclavePlatform& platform_;
  Measurement measurement_;
  crypto::Drbg rng_;
  mutable std::atomic<std::uint64_t> ecall_count_ = 0;
  mutable std::mutex epc_mutex_;
  std::size_t epc_used_ = 0;  // guarded by epc_mutex_
  std::size_t epc_peak_ = 0;  // guarded by epc_mutex_
};

}  // namespace ibbe::sgx

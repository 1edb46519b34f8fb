#include "sgx/enclave.h"

#include <stdexcept>

#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace ibbe::sgx {

// ------------------------------------------------------------- SealedBlob

util::Bytes SealedBlob::to_bytes() const {
  util::ByteWriter w;
  w.raw(measurement);
  w.blob(nonce);
  w.blob(ciphertext);
  return w.take();
}

SealedBlob SealedBlob::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  SealedBlob blob;
  auto m = r.raw(32);
  std::copy(m.begin(), m.end(), blob.measurement.begin());
  blob.nonce = r.blob();
  blob.ciphertext = r.blob();
  r.expect_end();
  return blob;
}

// ------------------------------------------------------------------ Quote

util::Bytes Quote::signed_payload() const {
  util::ByteWriter w;
  w.raw(measurement);
  w.blob(report_data);
  w.str(platform_id);
  return w.take();
}

util::Bytes Quote::to_bytes() const {
  util::ByteWriter w;
  w.raw(measurement);
  w.blob(report_data);
  w.str(platform_id);
  w.raw(signature.to_bytes());
  return w.take();
}

Quote Quote::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  Quote q;
  auto m = r.raw(32);
  std::copy(m.begin(), m.end(), q.measurement.begin());
  q.report_data = r.blob();
  q.platform_id = r.str();
  q.signature =
      pki::EcdsaSignature::from_bytes(r.raw(pki::EcdsaSignature::serialized_size));
  r.expect_end();
  return q;
}

// --------------------------------------------------------- EnclavePlatform

namespace {

/// `bytes` from the process-wide OS-seeded pool; callable from concurrent
/// ECALLs.
util::Bytes platform_entropy(std::size_t bytes) {
  static std::mutex mutex;
  static crypto::Drbg rng;  // OS-seeded
  std::lock_guard lock(mutex);
  return rng.bytes(bytes);
}

}  // namespace

EnclavePlatform::EnclavePlatform(std::string platform_id)
    : platform_id_(std::move(platform_id)),
      fuse_key_(platform_entropy(32)),
      qe_key_([] {
        crypto::Drbg rng(platform_entropy(32));
        return pki::EcdsaKeyPair::generate(rng);
      }()) {}

Quote EnclavePlatform::quote(const Measurement& measurement,
                             util::Bytes report_data) const {
  Quote q;
  q.measurement = measurement;
  q.report_data = std::move(report_data);
  q.platform_id = platform_id_;
  q.signature = qe_key_.sign(q.signed_payload());
  return q;
}

util::Bytes EnclavePlatform::sealing_key(const Measurement& measurement) const {
  return crypto::hkdf(measurement, fuse_key_, "sgx-sim:sealing:mrenclave", 32);
}

std::uint64_t EnclavePlatform::counter_read(const std::string& name) const {
  std::lock_guard lock(counter_mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t EnclavePlatform::counter_advance(const std::string& name,
                                               std::uint64_t at_least) {
  std::lock_guard lock(counter_mutex_);
  auto& value = counters_[name];
  if (at_least > value) value = at_least;
  return value;
}

// ------------------------------------------------------------ EnclaveImage

Measurement EnclaveImage::measure() const {
  crypto::Sha256 h;
  h.update("sgx-sim:enclave-image:");
  h.update(name);
  h.update("\x00");
  h.update(version);
  h.update("\x00");
  h.update(code_hash);
  return h.finish();
}

// ------------------------------------------------------------- EnclaveBase

EnclaveBase::EnclaveBase(EnclavePlatform& platform, const EnclaveImage& image)
    : platform_(platform), measurement_(image.measure()) {}

EnclaveBase::EnclaveBase(EnclavePlatform& platform, const EnclaveImage& image,
                         std::uint64_t rng_seed)
    : platform_(platform),
      measurement_(image.measure()),
      rng_(rng_seed) {}

Quote EnclaveBase::generate_quote(util::Bytes report_data) const {
  return platform_.quote(measurement_, std::move(report_data));
}

SealedBlob EnclaveBase::seal(std::span<const std::uint8_t> plaintext) const {
  auto key = platform_.sealing_key(measurement_);
  crypto::Aes256Gcm gcm(key);
  SealedBlob blob;
  blob.measurement = measurement_;
  // Random nonce from the platform pool; the measurement doubles as AAD so a
  // blob cannot be replayed under a different claimed identity.
  blob.nonce = platform_entropy(crypto::Aes256Gcm::nonce_size);
  blob.ciphertext = gcm.seal(blob.nonce, plaintext, measurement_);
  return blob;
}

std::optional<util::Bytes> EnclaveBase::unseal(const SealedBlob& blob) const {
  // MRENCLAVE policy: the key is derived from *our* measurement. A blob
  // sealed by any other enclave build fails authentication.
  auto key = platform_.sealing_key(measurement_);
  crypto::Aes256Gcm gcm(key);
  return gcm.open(blob.nonce, blob.ciphertext, measurement_);
}

std::size_t EnclaveBase::epc_bytes_used() const {
  std::lock_guard lock(epc_mutex_);
  return epc_used_;
}

std::size_t EnclaveBase::epc_bytes_peak() const {
  std::lock_guard lock(epc_mutex_);
  return epc_peak_;
}

void EnclaveBase::epc_alloc(std::size_t bytes) {
  std::lock_guard lock(epc_mutex_);
  epc_used_ += bytes;
  if (epc_used_ > epc_peak_) epc_peak_ = epc_used_;
  if (epc_used_ > epc_limit) {
    // Real SGX v1 would start paging EPC (heavily penalized); we surface the
    // condition instead of silently modelling the slowdown.
    throw std::runtime_error("sgx-sim: enclave exceeded the 128 MiB EPC budget");
  }
}

void EnclaveBase::epc_free(std::size_t bytes) {
  std::lock_guard lock(epc_mutex_);
  epc_used_ = bytes > epc_used_ ? 0 : epc_used_ - bytes;
}

}  // namespace ibbe::sgx

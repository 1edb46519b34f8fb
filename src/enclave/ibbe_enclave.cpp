#include "enclave/ibbe_enclave.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "pki/ecies.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace ibbe::enclave {

using core::BroadcastCiphertext;
using core::Identity;
using pairing::Gt;

util::Bytes PartitionCiphertext::to_bytes() const {
  util::ByteWriter w;
  write(w, ct.to_bytes());
  return w.take();
}

void PartitionCiphertext::write(util::ByteWriter& w,
                                std::span<const std::uint8_t> ct_bytes) const {
  w.raw(ct_bytes);
  w.blob(wrapped_gk);
  w.blob(nonce);
}

PartitionCiphertext PartitionCiphertext::from_bytes(
    std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  PartitionCiphertext out;
  out.ct = BroadcastCiphertext::from_bytes(
      r.raw(BroadcastCiphertext::serialized_size));
  out.wrapped_gk = r.blob();
  out.nonce = r.blob();
  r.expect_end();
  return out;
}

util::Bytes FreshnessToken::signed_payload(const std::string& group) const {
  util::ByteWriter w;
  w.str("ibbe-sgx:freshness:v1");
  w.str(group);
  w.u64(counter);
  w.u64(gk_epoch);
  w.raw(log_head);
  return w.take();
}

bool FreshnessToken::verify(const ec::P256Point& enclave_identity,
                            const std::string& group) const {
  if (counter == 0) return false;  // 0 is the "no attestation" sentinel
  return pki::ecdsa_verify(enclave_identity, signed_payload(group), signature);
}

util::Bytes FreshnessToken::to_bytes() const {
  util::ByteWriter w;
  w.u64(counter);
  w.u64(gk_epoch);
  w.raw(log_head);
  w.raw(signature.to_bytes());
  return w.take();
}

FreshnessToken FreshnessToken::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  FreshnessToken token;
  token.counter = r.u64();
  token.gk_epoch = r.u64();
  auto head = r.raw(32);
  std::copy(head.begin(), head.end(), token.log_head.begin());
  token.signature =
      pki::EcdsaSignature::from_bytes(r.raw(pki::EcdsaSignature::serialized_size));
  r.expect_end();
  return token;
}

sgx::EnclaveImage IbbeEnclave::image() {
  sgx::EnclaveImage img;
  img.name = "ibbe-sgx";
  img.version = "1.0.0";
  // Stand-in for the hash of the enclave's code pages.
  auto digest = crypto::Sha256::hash("ibbe-sgx enclave code v1.0.0");
  img.code_hash.assign(digest.begin(), digest.end());
  return img;
}

IbbeEnclave::IbbeEnclave(sgx::EnclavePlatform& platform,
                         std::size_t max_partition_size)
    : sgx::EnclaveBase(platform, image()),
      keys_(core::setup(max_partition_size, enclave_rng())),
      identity_key_(pki::EcdsaKeyPair::generate(enclave_rng())) {
  // The dominant long-lived enclave allocation is the PK power table; the
  // MSK and identity key are constant-size.
  epc_alloc(keys_.pk.h_powers.size() * ec::g2_serialized_size + 4096);
}

IbbeEnclave::IbbeEnclave(sgx::EnclavePlatform& platform,
                         std::size_t max_partition_size, std::uint64_t rng_seed)
    : sgx::EnclaveBase(platform, image(), rng_seed),
      keys_(core::setup(max_partition_size, enclave_rng())),
      identity_key_(pki::EcdsaKeyPair::generate(enclave_rng())) {
  epc_alloc(keys_.pk.h_powers.size() * ec::g2_serialized_size + 4096);
}

const core::PublicKey& IbbeEnclave::pk_with_tables() {
  std::call_once(tables_billed_, [this] {
    epc_alloc(keys_.pk.fixed_base_tables().bytes());
  });
  return keys_.pk;
}

util::Bytes IbbeEnclave::identity_public_key() const {
  return identity_key_.public_key_bytes();
}

sgx::Quote IbbeEnclave::attestation_quote() const {
  auto digest = crypto::Sha256::hash(identity_key_.public_key_bytes());
  return generate_quote(util::Bytes(digest.begin(), digest.end()));
}

util::Bytes IbbeEnclave::wrap_gk(const Gt& bk, std::span<const std::uint8_t> gk,
                                 const util::Bytes& nonce) const {
  // y_p = AES-256-GCM(key = SHA-256(bk), gk) — the paper's
  // sgx_aes(sgx_sha(b_p), gk), upgraded from raw AES to an AEAD so clients
  // can detect wrong/corrupted partition keys.
  auto key = bk.hash();
  crypto::Aes256Gcm gcm(key);
  return gcm.seal(nonce, gk);
}

namespace {

/// The randomness one partition's worth of enclaved work consumes: the IBBE
/// randomizer k and the y_p GCM nonce. Drawn on the ecall thread, in
/// partition order, BEFORE the deterministic math fans out to the pool.
struct PartitionDraw {
  field::Fr k;
  util::Bytes nonce;
};

PartitionDraw draw_partition_randomness(crypto::Drbg& rng) {
  PartitionDraw d;
  d.k = core::random_nonzero_fr(rng);
  d.nonce = rng.bytes(crypto::Aes256Gcm::nonce_size);
  return d;
}

}  // namespace

IbbeEnclave::GroupCreation IbbeEnclave::ecall_create_group(
    std::span<const std::vector<Identity>> partitions) {
  EcallScope scope(*this);
  if (partitions.empty()) {
    throw std::invalid_argument("ecall_create_group: no partitions");
  }
  util::Bytes gk = enclave_rng().bytes(group_key_size);
  std::vector<PartitionDraw> draws(partitions.size());
  for (auto& d : draws) d = draw_partition_randomness(enclave_rng());

  const core::PublicKey& pk = pk_with_tables();
  GroupCreation out;
  out.partitions.resize(partitions.size());
  util::ThreadPool::global().parallel_for(
      0, partitions.size(), 1, [&](std::size_t i) {
        auto enc =
            core::encrypt_with_msk(keys_.msk, pk, partitions[i], draws[i].k);
        PartitionCiphertext& pc = out.partitions[i];
        pc.ct = enc.ct;
        pc.nonce = std::move(draws[i].nonce);
        pc.wrapped_gk = wrap_gk(enc.bk, gk, pc.nonce);
      });
  out.sealed_gk = seal(gk);
  return out;
}

BroadcastCiphertext IbbeEnclave::ecall_add_user_to_partition(
    const BroadcastCiphertext& ct, const Identity& added) {
  EcallScope scope(*this);
  BroadcastCiphertext updated = ct;
  core::add_user_with_msk(keys_.msk, updated, added);
  return updated;
}

PartitionCiphertext IbbeEnclave::ecall_create_partition(
    std::span<const Identity> members, const sgx::SealedBlob& sealed_gk) {
  EcallScope scope(*this);
  auto gk = unseal(sealed_gk);
  if (!gk) throw std::invalid_argument("ecall_create_partition: bad sealed gk");
  auto draw = draw_partition_randomness(enclave_rng());
  auto enc = core::encrypt_with_msk(keys_.msk, pk_with_tables(), members,
                                    draw.k);
  PartitionCiphertext pc;
  pc.ct = enc.ct;
  pc.nonce = std::move(draw.nonce);
  pc.wrapped_gk = wrap_gk(enc.bk, *gk, pc.nonce);
  return pc;
}

IbbeEnclave::RemovalResult IbbeEnclave::ecall_remove_users(
    std::span<const BatchRemovalSpec> hosts,
    std::span<const BroadcastCiphertext> other_partitions) {
  EcallScope scope(*this);
  // Algorithm 3, line 3: fresh group key (revocation re-keys everything).
  util::Bytes gk = enclave_rng().bytes(group_key_size);
  const std::size_t total = hosts.size() + other_partitions.size();
  std::vector<PartitionDraw> draws(total);
  for (auto& d : draws) d = draw_partition_randomness(enclave_rng());

  const core::PublicKey& pk = pk_with_tables();
  RemovalResult out;
  out.partitions.resize(total);
  // Slots [0, hosts.size()): lines 4-5, the removal on each hosting
  // partition; the rest: lines 6-8, the constant-time re-key of every other
  // partition, in the input order. Randomness was drawn above; the fan-out
  // is pure arithmetic into pre-sized slots.
  util::ThreadPool::global().parallel_for(0, total, 1, [&](std::size_t i) {
    auto enc = (i < hosts.size())
                   ? core::remove_users_with_msk(keys_.msk, pk, hosts[i].ct,
                                                 hosts[i].removed, draws[i].k)
                   : core::rekey(pk, other_partitions[i - hosts.size()],
                                 draws[i].k);
    PartitionCiphertext& pc = out.partitions[i];
    pc.ct = enc.ct;
    pc.nonce = std::move(draws[i].nonce);
    pc.wrapped_gk = wrap_gk(enc.bk, gk, pc.nonce);
  });
  // Line 9: seal the new group key.
  out.sealed_gk = seal(gk);
  return out;
}

core::UserSecretKey IbbeEnclave::ecall_extract_user_key(const Identity& id) {
  EcallScope scope(*this);
  return core::extract_user_key(keys_.msk, id);
}

util::Bytes IbbeEnclave::ecall_provision_user_key(
    const Identity& id, std::span<const std::uint8_t> user_p256_pub) {
  EcallScope scope(*this);
  auto usk = core::extract_user_key(keys_.msk, id);
  ec::P256Point recipient = ec::p256_from_bytes(user_p256_pub);
  return pki::ecies_encrypt(recipient, usk.to_bytes(), enclave_rng());
}

std::string IbbeEnclave::freshness_counter_name(const std::string& group) const {
  // Scoped by measurement so another enclave build on the same platform has
  // an independent counter space (like PSE counters owned per enclave).
  return "fresh:" + util::to_hex(measurement()) + ":" + group;
}

FreshnessToken IbbeEnclave::ecall_attest_freshness(
    const std::string& group, std::uint64_t floor, std::uint64_t gk_epoch,
    const std::array<std::uint8_t, 32>& log_head) {
  EcallScope scope(*this);
  FreshnessToken token;
  auto confirmed = platform().counter_read(freshness_counter_name(group));
  // One above everything committed that we know of: the platform's confirmed
  // counter AND the caller's floor (the counter of the view it last synced —
  // covers a peer admin's commits confirmed on another platform).
  token.counter = std::max(confirmed, floor) + 1;
  token.gk_epoch = gk_epoch;
  token.log_head = log_head;
  token.signature = identity_key_.sign(token.signed_payload(group));
  return token;
}

void IbbeEnclave::ecall_confirm_freshness(const std::string& group,
                                          std::uint64_t counter) {
  EcallScope scope(*this);
  platform().counter_advance(freshness_counter_name(group), counter);
}

std::uint64_t IbbeEnclave::ecall_freshness_floor(const std::string& group) const {
  EcallScope scope(*this);
  return platform().counter_read(freshness_counter_name(group));
}

}  // namespace ibbe::enclave

#include "enclave/ibbe_enclave.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "pki/ecies.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace ibbe::enclave {

using core::BroadcastCiphertext;
using core::Identity;
using field::Fr;
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

const core::PublicKey& IbbeEnclave::pk_with_h_comb() {
  const core::PublicKey& pk = pk_with_tables();
  std::call_once(h_comb_billed_,
                 [&] { epc_alloc(pk.h_comb().table_bytes()); });
  return pk;
}

template <typename Fn>
void IbbeEnclave::with_exponents(Fn&& fn) {
  std::lock_guard lock(exponents_mutex_);
  const std::size_t before = exponents_.bytes();
  fn(exponents_);
  const std::size_t after = exponents_.bytes();
  if (after >= before) {
    epc_alloc(after - before);
  } else {
    epc_free(before - after);
  }
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
  util::Bytes gk;
  std::vector<PartitionDraw> draws(partitions.size());
  {
    std::lock_guard lock(draw_mutex_);
    gk = enclave_rng().bytes(group_key_size);
    for (auto& d : draws) d = draw_partition_randomness(enclave_rng());
  }

  const core::PublicKey& pk = pk_with_tables();
  GroupCreation out;
  out.partitions.resize(partitions.size());
  std::vector<Fr> exponents(partitions.size());
  std::vector<ec::G2> c3s(partitions.size());
  util::ThreadPool::global().parallel_for(
      0, partitions.size(), 1, [&](std::size_t i) {
        auto enc = core::encrypt_with_msk(keys_.msk, pk, partitions[i],
                                          draws[i].k, &exponents[i]);
        PartitionCiphertext& pc = out.partitions[i];
        pc.ct = enc.ct;
        pc.nonce = std::move(draws[i].nonce);
        pc.wrapped_gk = wrap_gk(enc.bk, gk, pc.nonce);
        c3s[i] = enc.ct.c3;
      });
  const auto keys = ExponentTable::keys_of(c3s);
  with_exponents([&](ExponentTable& table) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table.insert(keys[i], exponents[i]);
    }
  });
  out.sealed_gk = seal(gk);
  return out;
}

BroadcastCiphertext IbbeEnclave::ecall_add_user_to_partition(
    const BroadcastCiphertext& ct, const Identity& added) {
  EcallScope scope(*this);
  BroadcastCiphertext updated = ct;
  const Fr factor = core::add_user_with_msk(keys_.msk, updated, added);
  // Both C3s share one inversion, so encoding the new one costs a miss
  // little; a known entry moves to the new C3.
  const auto keys = ExponentTable::keys_of(std::array{ct.c3, updated.c3});
  with_exponents([&](ExponentTable& table) {
    if (auto s = table.lookup(keys[0])) {
      table.erase(keys[0]);
      table.insert(keys[1], *s * factor);
    }
  });
  return updated;
}

PartitionCiphertext IbbeEnclave::ecall_create_partition(
    std::span<const Identity> members, const sgx::SealedBlob& sealed_gk) {
  EcallScope scope(*this);
  auto gk = unseal(sealed_gk);
  if (!gk) throw std::invalid_argument("ecall_create_partition: bad sealed gk");
  PartitionDraw draw;
  {
    std::lock_guard lock(draw_mutex_);
    draw = draw_partition_randomness(enclave_rng());
  }
  Fr exponent;
  auto enc = core::encrypt_with_msk(keys_.msk, pk_with_tables(), members,
                                    draw.k, &exponent);
  const auto keys = ExponentTable::keys_of(std::span(&enc.ct.c3, 1));
  with_exponents(
      [&](ExponentTable& table) { table.insert(keys[0], exponent); });
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
  const std::size_t total = hosts.size() + other_partitions.size();
  util::Bytes gk;
  std::vector<PartitionDraw> draws(total);
  {
    std::lock_guard lock(draw_mutex_);
    // Algorithm 3, line 3: fresh group key (revocation re-keys everything).
    gk = enclave_rng().bytes(group_key_size);
    for (auto& d : draws) d = draw_partition_randomness(enclave_rng());
  }

  // Every partition's exponent s, where the enclave computed its C3.
  std::vector<ec::G2> c3s;
  c3s.reserve(total);
  for (const auto& host : hosts) c3s.push_back(host.ct.c3);
  for (const auto& ct : other_partitions) c3s.push_back(ct.c3);
  const auto keys = ExponentTable::keys_of(c3s);
  std::vector<std::optional<Fr>> exponents(total);
  with_exponents([&](ExponentTable& table) {
    for (std::size_t i = 0; i < total; ++i) {
      exponents[i] = table.lookup(keys[i]);
    }
  });
  const bool any_known =
      std::any_of(exponents.begin(), exponents.end(),
                  [](const std::optional<Fr>& s) { return s.has_value(); });
  const core::PublicKey& pk = any_known ? pk_with_h_comb() : pk_with_tables();

  RemovalResult out;
  out.partitions.resize(total);
  // Slots [0, hosts.size()): lines 4-5, the removal on each hosting
  // partition; the rest: lines 6-8, the constant-time re-key of every other
  // partition, in the input order. Randomness was drawn above; the fan-out
  // is pure arithmetic into pre-sized slots. A known exponent and the
  // MSK/PK path give the same bytes.
  util::ThreadPool::global().parallel_for(0, total, 1, [&](std::size_t i) {
    std::optional<Fr>& s = exponents[i];
    core::EncryptResult enc;
    if (i < hosts.size()) {
      const BatchRemovalSpec& host = hosts[i];
      if (s) {
        *s *= core::partition_exponent(keys_.msk, host.removed).inverse();
        enc = core::encrypt_with_exponent(pk, *s, draws[i].k);
      } else {
        enc = core::remove_users_with_msk(keys_.msk, pk, host.ct,
                                          host.removed, draws[i].k);
      }
    } else {
      const BroadcastCiphertext& ct = other_partitions[i - hosts.size()];
      enc = s ? core::rekey_with_exponent(pk, ct.c3, *s, draws[i].k)
              : core::rekey(pk, ct, draws[i].k);
    }
    PartitionCiphertext& pc = out.partitions[i];
    pc.ct = enc.ct;
    pc.nonce = std::move(draws[i].nonce);
    pc.wrapped_gk = wrap_gk(enc.bk, gk, pc.nonce);
  });
  // The hosts' C3s changed: each known one's entry moves to its new C3.
  std::vector<ec::G2> host_c3s(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    host_c3s[i] = out.partitions[i].ct.c3;
  }
  const auto host_keys = ExponentTable::keys_of(host_c3s);
  with_exponents([&](ExponentTable& table) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!exponents[i]) continue;
      table.erase(keys[i]);
      table.insert(host_keys[i], *exponents[i]);
    }
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
  std::lock_guard lock(draw_mutex_);
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

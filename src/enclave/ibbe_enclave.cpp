#include "enclave/ibbe_enclave.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "pki/ecies.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace ibbe::enclave {

using core::BroadcastCiphertext;
using core::Identity;
using field::Fr;

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

namespace {

using Handle = IbbeEnclave::PartitionHandle;

/// K_rec = HKDF(gamma, "ibbe-sgx:partition-record:v1").
util::Bytes record_key_of(const core::MasterSecretKey& msk) {
  return crypto::hkdf({}, msk.gamma.to_be_bytes(),
                      "ibbe-sgx:partition-record:v1",
                      crypto::Aes256Gcm::key_size);
}

/// A record's AAD: the big-endian pid, then C1's compressed encoding.
util::Bytes record_aad(std::uint64_t pid, std::span<const std::uint8_t> c1) {
  util::ByteWriter w;
  w.u64(pid);
  w.raw(c1);
  return w.take();
}

/// What a record vouches for: the partition key SHA-256(bk) and, if known,
/// the exponent s (sealed as zero when unknown).
struct RecordContents {
  std::array<std::uint8_t, 32> key{};
  std::optional<Fr> s;
};

/// Opens each partition's record against its pid and C1 (every C1 encoded
/// with one batch inversion), on the pool; std::nullopt where it is missing
/// or refused.
std::vector<std::optional<RecordContents>> open_records(
    const crypto::Aes256Gcm& record_key, std::span<const Handle* const> parts) {
  std::vector<ec::G1> c1s(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) c1s[i] = parts[i]->ct.c1;
  const auto c1_affine = ec::G1::batch_to_affine(c1s);
  std::vector<std::optional<RecordContents>> out(parts.size());
  util::ThreadPool::global().parallel_for(
      0, parts.size(), 16, [&](std::size_t i) {
        const std::span<const std::uint8_t> record = parts[i]->record;
        if (record.size() < crypto::Aes256Gcm::nonce_size) return;
        std::array<std::uint8_t, ec::g1_serialized_size> c1{};
        ec::g1_affine_to_bytes(c1_affine[i], c1);
        auto plain = record_key.open(
            record.first(crypto::Aes256Gcm::nonce_size),
            record.subspan(crypto::Aes256Gcm::nonce_size),
            record_aad(parts[i]->pid, c1));
        if (!plain) return;
        RecordContents& contents = out[i].emplace();
        std::copy_n(plain->begin(), 32, contents.key.begin());
        const Fr s = Fr::from_be_bytes_reduce(std::span(*plain).subspan(32));
        if (!s.is_zero()) contents.s = s;
      });
  return out;
}

/// y_p = AES-256-GCM(key = SHA-256(bk), gk) — the paper's
/// sgx_aes(sgx_sha(b_p), gk), upgraded from raw AES to an AEAD so clients
/// can detect wrong/corrupted partition keys.
util::Bytes wrap_gk(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> gk, const util::Bytes& nonce) {
  return crypto::Aes256Gcm(key).seal(nonce, gk);
}

/// One partition's randomness: the y_p nonce and, if it is (re-)keyed, k and
/// its record's nonce. Drawn on the ecall thread, in partition order, BEFORE
/// the math fans out to the pool, so a seeded enclave's outputs are
/// bitwise-identical at every thread count.
struct PartitionDraw {
  util::Bytes nonce;
  Fr k;
  util::Bytes record_nonce;
};

PartitionDraw draw_partition_randomness(crypto::Drbg& rng, bool keyed) {
  PartitionDraw d;
  if (keyed) d.k = core::random_nonzero_fr(rng);
  d.nonce = rng.bytes(crypto::Aes256Gcm::nonce_size);
  if (keyed) d.record_nonce = rng.bytes(crypto::Aes256Gcm::nonce_size);
  return d;
}

/// A (re-)keyed partition: its ciphertext, y_p wrapping `gk` under the new
/// bk, and its record nonce || AES-GCM(K_rec, SHA-256(bk) || s).
IbbeEnclave::PartitionUpdate keyed_partition(
    const crypto::Aes256Gcm& record_key, std::uint64_t pid,
    const core::EncryptResult& enc, const Fr& s,
    std::span<const std::uint8_t> gk, PartitionDraw& draw) {
  const auto key = enc.bk.hash();
  IbbeEnclave::PartitionUpdate out;
  out.cipher.ct = enc.ct;
  out.cipher.nonce = std::move(draw.nonce);
  out.cipher.wrapped_gk = wrap_gk(key, gk, out.cipher.nonce);
  util::ByteWriter plain;
  plain.raw(key);
  plain.raw(s.to_be_bytes());
  const auto sealed =
      record_key.seal(draw.record_nonce, plain.bytes(),
                      record_aad(pid, ec::g1_to_bytes(enc.ct.c1)));
  out.record = std::move(draw.record_nonce);
  out.record.insert(out.record.end(), sealed.begin(), sealed.end());
  return out;
}

}  // namespace

IbbeEnclave::IbbeEnclave(sgx::EnclavePlatform& platform,
                         std::size_t max_partition_size)
    : sgx::EnclaveBase(platform, image()),
      keys_(core::setup(max_partition_size, enclave_rng())),
      identity_key_(pki::EcdsaKeyPair::generate(enclave_rng())),
      record_key_(record_key_of(keys_.msk)) {
  // The dominant long-lived enclave allocation is the PK power table; the
  // MSK, record key and identity key are constant-size.
  epc_alloc(keys_.pk.h_powers.size() * ec::g2_serialized_size + 4096);
}

IbbeEnclave::IbbeEnclave(sgx::EnclavePlatform& platform,
                         std::size_t max_partition_size, std::uint64_t rng_seed)
    : sgx::EnclaveBase(platform, image(), rng_seed),
      keys_(core::setup(max_partition_size, enclave_rng())),
      identity_key_(pki::EcdsaKeyPair::generate(enclave_rng())),
      record_key_(record_key_of(keys_.msk)) {
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

util::Bytes IbbeEnclave::identity_public_key() const {
  return identity_key_.public_key_bytes();
}

sgx::Quote IbbeEnclave::attestation_quote() const {
  auto digest = crypto::Sha256::hash(identity_key_.public_key_bytes());
  return generate_quote(util::Bytes(digest.begin(), digest.end()));
}

IbbeEnclave::GroupCreation IbbeEnclave::encrypt_partitions(
    std::span<const std::uint64_t> pids,
    std::span<const std::vector<Identity>> partitions,
    std::span<const std::uint8_t> gk) {
  if (pids.size() != partitions.size()) {
    throw std::invalid_argument("ibbe enclave: one pid per partition");
  }
  std::vector<PartitionDraw> draws(partitions.size());
  {
    std::lock_guard lock(draw_mutex_);
    for (auto& d : draws) d = draw_partition_randomness(enclave_rng(), true);
  }

  const core::PublicKey& pk = pk_with_tables();
  GroupCreation out;
  out.partitions.resize(partitions.size());
  out.records.resize(partitions.size());
  util::ThreadPool::global().parallel_for(
      0, partitions.size(), 1, [&](std::size_t i) {
        Fr s;
        auto enc = core::encrypt_with_msk(keys_.msk, pk, partitions[i],
                                          draws[i].k, &s);
        auto made = keyed_partition(record_key_, pids[i], enc, s, gk, draws[i]);
        out.partitions[i] = std::move(made.cipher);
        out.records[i] = std::move(made.record);
      });
  return out;
}

IbbeEnclave::GroupCreation IbbeEnclave::ecall_create_group(
    std::span<const std::uint64_t> pids,
    std::span<const std::vector<Identity>> partitions) {
  EcallScope scope(*this);
  if (partitions.empty()) {
    throw std::invalid_argument("ecall_create_group: no partitions");
  }
  util::Bytes gk;
  {
    std::lock_guard lock(draw_mutex_);
    gk = enclave_rng().bytes(group_key_size);
  }
  GroupCreation out = encrypt_partitions(pids, partitions, gk);
  out.sealed_gk = seal(gk);
  return out;
}

IbbeEnclave::PartitionUpdate IbbeEnclave::ecall_create_partition(
    std::uint64_t pid, std::span<const Identity> members,
    const sgx::SealedBlob& sealed_gk) {
  EcallScope scope(*this);
  auto gk = unseal(sealed_gk);
  if (!gk) throw std::invalid_argument("ecall_create_partition: bad sealed gk");
  const std::vector<Identity> set(members.begin(), members.end());
  GroupCreation made = encrypt_partitions(std::span(&pid, 1),
                                          std::span(&set, 1), *gk);
  return {std::move(made.partitions[0]), std::move(made.records[0])};
}

IbbeEnclave::PartitionUpdate IbbeEnclave::ecall_add_user_to_partition(
    const PartitionHandle& partition, const Identity& added,
    const sgx::SealedBlob& sealed_gk) {
  EcallScope scope(*this);
  auto gk = unseal(sealed_gk);
  if (!gk) {
    throw std::invalid_argument("ecall_add_user_to_partition: bad sealed gk");
  }
  const Handle* handle = &partition;
  const auto record = open_records(record_key_, std::span(&handle, 1))[0];
  PartitionDraw draw;
  {
    std::lock_guard lock(draw_mutex_);
    draw = draw_partition_randomness(enclave_rng(), true);
  }

  // C3 gains (gamma + H(added)); the fresh k re-keys the partition.
  const Fr factor = core::partition_exponent(keys_.msk, std::span(&added, 1));
  Fr s;
  core::EncryptResult enc;
  if (record && record->s) {
    s = *record->s * factor;
    enc = core::encrypt_with_exponent(pk_with_h_comb(), s, draw.k);
  } else {
    BroadcastCiphertext grown = partition.ct;
    grown.c3 = grown.c3.mul(factor);
    enc = core::rekey(pk_with_tables(), grown, draw.k);
  }
  return keyed_partition(record_key_, partition.pid, enc, s, *gk, draw);
}

IbbeEnclave::RemovalResult IbbeEnclave::ecall_remove_users(
    std::span<const BatchRemovalSpec> hosts,
    std::span<const PartitionHandle> other_partitions) {
  EcallScope scope(*this);
  const std::size_t total = hosts.size() + other_partitions.size();
  std::vector<const Handle*> parts;
  parts.reserve(total);
  for (const auto& host : hosts) parts.push_back(&host.partition);
  for (const auto& other : other_partitions) parts.push_back(&other);
  const auto opened = open_records(record_key_, parts);
  // Hosts, and any partition without a usable record, get a fresh k.
  const auto keyed = [&](std::size_t i) {
    return i < hosts.size() || !opened[i];
  };

  util::Bytes gk;
  std::vector<PartitionDraw> draws(total);
  {
    std::lock_guard lock(draw_mutex_);
    // Algorithm 3, line 3: fresh group key.
    gk = enclave_rng().bytes(group_key_size);
    for (std::size_t i = 0; i < total; ++i) {
      draws[i] = draw_partition_randomness(enclave_rng(), keyed(i));
    }
  }
  const bool any_exponent =
      std::any_of(opened.begin(), opened.begin() + hosts.size(),
                  [](const auto& r) { return r && r->s; });
  const core::PublicKey& pk = any_exponent ? pk_with_h_comb() : pk_with_tables();

  RemovalResult out;
  out.partitions.resize(total);
  out.records.resize(total);
  // Slots [0, hosts.size()): lines 4-5, the removal on each hosting
  // partition; the rest: lines 6-8, gk re-wrapped under each other
  // partition's unchanged key, in the input order. Randomness was drawn
  // above; the fan-out is pure arithmetic into pre-sized slots.
  util::ThreadPool::global().parallel_for(0, total, 1, [&](std::size_t i) {
    const Handle& part = *parts[i];
    if (!keyed(i)) {
      PartitionCiphertext& pc = out.partitions[i];
      pc.ct = part.ct;
      pc.nonce = std::move(draws[i].nonce);
      pc.wrapped_gk = wrap_gk(opened[i]->key, gk, pc.nonce);
      return;
    }
    Fr s;  // zero: unknown
    core::EncryptResult enc;
    if (i >= hosts.size()) {
      enc = core::rekey(pk, part.ct, draws[i].k);
    } else if (opened[i] && opened[i]->s) {
      s = *opened[i]->s *
          core::partition_exponent(keys_.msk, hosts[i].removed).inverse();
      enc = core::encrypt_with_exponent(pk, s, draws[i].k);
    } else {
      enc = core::remove_users_with_msk(keys_.msk, pk, part.ct,
                                        hosts[i].removed, draws[i].k);
    }
    auto made = keyed_partition(record_key_, part.pid, enc, s, gk, draws[i]);
    out.partitions[i] = std::move(made.cipher);
    out.records[i] = std::move(made.record);
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

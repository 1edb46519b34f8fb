#include "he/he_ibe.h"

#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "util/thread_pool.h"

namespace ibbe::he {

using ec::G1;
using ec::G2;
using field::Fr;

namespace {

constexpr std::size_t gk_size = 32;

Fr random_nonzero_fr(crypto::Drbg& rng) {
  while (true) {
    auto raw = rng.bytes(32);
    Fr k = Fr::from_be_bytes_reduce(raw);
    if (!k.is_zero()) return k;
  }
}

const util::Bytes& zero_nonce() {
  static const util::Bytes nonce(12, 0);  // key is fresh per encryption
  return nonce;
}

}  // namespace

HeIbeScheme::HeIbeScheme(std::uint64_t seed) : rng_(seed) {
  master_s_ = random_nonzero_fr(rng_);
  p_pub_ = G2::generator().mul(master_s_);
  p_pub_prepared_ = pairing::G2Prepared(p_pub_);
}

const G1& HeIbeScheme::user_key(const core::Identity& id) {
  auto it = extracted_.find(id);
  if (it == extracted_.end()) {
    it = extracted_.emplace(id, ec::hash_to_g1(id).mul(master_s_)).first;
  }
  return it->second;
}

void HeIbeScheme::grant(const core::Identity& id) {
  Fr r = random_nonzero_fr(rng_);
  G2 u = G2::generator().mul(r);
  auto shared = pairing::pairing(ec::hash_to_g1(id), p_pub_prepared_).exp(r);
  crypto::Aes256Gcm gcm(shared.hash());
  Entry entry;
  entry.u_bytes = ec::g2_to_bytes(u);
  entry.body = gcm.seal(zero_nonce(), gk_);
  entries_[id] = std::move(entry);
}

void HeIbeScheme::grant_many(std::span<const core::Identity> ids) {
  // One grant per member, but with the per-member final exponentiations
  // batched (pairing::final_exponentiation_many shares the easy part's field
  // inversion) and the per-member key derivation routed through the GT
  // exponentiation engine via Gt::exp. The per-member math fans out to the
  // thread pool: the r_i are pre-drawn serially in member order, each task
  // writes only its own slots, and the entries_ map is mutated exclusively
  // on the calling thread — the outputs are bitwise-identical to the serial
  // loop at any thread count.
  const std::size_t n = ids.size();
  std::vector<Fr> rs(n);
  for (auto& r : rs) r = random_nonzero_fr(rng_);

  std::vector<util::Bytes> u_bytes(n);
  std::vector<field::Fp12> millers(n);
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(0, n, 1, [&](std::size_t i) {
    u_bytes[i] = ec::g2_to_bytes(G2::generator().mul(rs[i]));
    millers[i] = pairing::miller_loop(ec::hash_to_g1(ids[i]), p_pub_prepared_);
  });
  auto exps = pairing::final_exponentiation_many(millers);

  std::vector<util::Bytes> bodies(n);
  pool.parallel_for(0, n, 1, [&](std::size_t i) {
    auto shared = pairing::Gt::from_fp12_unchecked(exps[i]).exp(rs[i]);
    crypto::Aes256Gcm gcm(shared.hash());
    bodies[i] = gcm.seal(zero_nonce(), gk_);
  });

  for (std::size_t i = 0; i < n; ++i) {
    Entry entry;
    entry.u_bytes = std::move(u_bytes[i]);
    entry.body = std::move(bodies[i]);
    entries_[ids[i]] = std::move(entry);
  }
}

void HeIbeScheme::create_group(std::span<const core::Identity> members) {
  entries_.clear();
  gk_ = rng_.bytes(gk_size);
  grant_many(members);
}

void HeIbeScheme::add_user(const core::Identity& id) {
  if (gk_.empty()) gk_ = rng_.bytes(gk_size);
  grant(id);
}

void HeIbeScheme::remove_user(const core::Identity& id) {
  entries_.erase(id);
  gk_ = rng_.bytes(gk_size);
  std::vector<core::Identity> remaining;
  remaining.reserve(entries_.size());
  for (const auto& [member, entry] : entries_) remaining.push_back(member);
  grant_many(remaining);
}

std::optional<util::Bytes> HeIbeScheme::user_decrypt(const core::Identity& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  G2 u;
  try {
    u = ec::g2_from_bytes(it->second.u_bytes);
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
  auto shared = pairing::pairing(user_key(id), u);
  crypto::Aes256Gcm gcm(shared.hash());
  return gcm.open(zero_nonce(), it->second.body);
}

std::size_t HeIbeScheme::metadata_size() const {
  std::size_t total = 0;
  for (const auto& [id, entry] : entries_) {
    total += id.size() + entry.u_bytes.size() + entry.body.size() + 8;
  }
  return total;
}

std::array<std::uint8_t, 32> HeIbeScheme::entries_digest() const {
  crypto::Sha256 h;
  for (const auto& [id, entry] : entries_) {
    util::ByteWriter w;
    w.str(id);
    w.blob(entry.u_bytes);
    w.blob(entry.body);
    h.update(w.take());
  }
  return h.finish();
}

}  // namespace ibbe::he

#include "ibbe/ibbe.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"
#include "ibbe/poly.h"

namespace ibbe::core {

using ec::G1;
using ec::G2;
using field::Fr;
using pairing::Gt;

field::Fr hash_identity(const Identity& id) {
  for (std::uint8_t counter = 0;; ++counter) {
    crypto::Sha256 h;
    h.update("ibbe-sgx:identity:v1:");
    h.update(id);
    std::array<std::uint8_t, 1> c{counter};
    h.update(c);
    Fr out = Fr::from_be_bytes_reduce(h.finish());
    if (!out.is_zero()) return out;
  }
}

Fr random_nonzero_fr(crypto::Drbg& rng) {
  while (true) {
    auto raw = rng.bytes(32);
    Fr k = Fr::from_be_bytes_reduce(raw);
    if (!k.is_zero()) return k;
  }
}

namespace {

void check_receivers(const PublicKey& pk, std::span<const Identity> receivers) {
  if (receivers.empty()) {
    throw std::invalid_argument("ibbe: receiver set must not be empty");
  }
  if (receivers.size() > pk.max_receivers()) {
    throw std::invalid_argument("ibbe: receiver set exceeds the PK bound m");
  }
}

/// Coefficients (ascending degree) of prod_u (x + H(u)) over Zr — the
/// polynomial expansion of the paper's Formula 4, via a subproduct tree for
/// large sets (ibbe/poly.h). `skip` excludes exactly ONE occurrence (decrypt
/// divides a single (gamma+H(i)) factor out of the product, even if an
/// identity is duplicated in S).
std::vector<Fr> expand_polynomial(std::span<const Identity> receivers,
                                  const Identity* skip) {
  std::vector<Fr> roots;
  roots.reserve(receivers.size());
  bool skipped = false;
  for (const Identity& id : receivers) {
    if (skip && !skipped && id == *skip) {
      skipped = true;
      continue;
    }
    roots.push_back(hash_identity(id));
  }
  return poly::expand_roots(roots);
}

/// h^(poly(gamma)) assembled from the PK powers: prod_i (h^gamma^i)^coef_i,
/// one GLS-decomposed multi-scalar multiplication over the key's cached
/// affine tables instead of |coef| independent G2 ladders.
G2 evaluate_in_exponent(const PublicKey& pk, std::span<const Fr> coef) {
  if (coef.size() > pk.h_powers.size()) {
    throw std::invalid_argument("ibbe: polynomial degree exceeds PK powers");
  }
  return pk.powers_msm(coef.size())->msm(coef);
}

/// (bk, C1, C3) for the randomizer k over an existing C3: v and w through
/// the key's fixed-base tables. The caller fills C2 = C3^k.
EncryptResult assemble_without_c2(const PublicKey& pk, const G2& c3,
                                  const Fr& k) {
  const FixedBaseTables& tables = pk.fixed_base_tables();
  EncryptResult out;
  out.bk = Gt::from_fp12_unchecked(tables.v.pow(k.to_u256()));
  out.ct.c1 = tables.w.pow(k.neg().to_u256());
  out.ct.c3 = c3;
  return out;
}

/// Completes (bk, C1, C2) over an existing C3, which (different per
/// partition) goes through the variable-base GLS split.
EncryptResult assemble_from_c3(const PublicKey& pk, const G2& c3,
                               const Fr& k) {
  EncryptResult out = assemble_without_c2(pk, c3, k);
  out.ct.c2 = c3.mul(k);
  return out;
}

EncryptResult assemble_from_c3(const PublicKey& pk, const G2& c3,
                               crypto::Drbg& rng) {
  return assemble_from_c3(pk, c3, random_nonzero_fr(rng));
}

}  // namespace

// ------------------------------------------------------------ serialization

namespace {

/// Double-checked lazy init so concurrent first calls on a shared const
/// PublicKey race benignly (one winner, losers adopt its table) instead of
/// tearing a shared_ptr.
template <typename Table, typename... Args>
const Table& cached(std::shared_ptr<const Table>& slot, const Args&... args) {
  auto cur = std::atomic_load_explicit(&slot, std::memory_order_acquire);
  if (!cur) {
    auto fresh = std::make_shared<const Table>(args...);
    if (!std::atomic_compare_exchange_strong(&slot, &cur, fresh)) {
      return *cur;  // another thread won; cur now holds its table
    }
    return *fresh;
  }
  return *cur;
}

}  // namespace

const pairing::G2Prepared& PublicKey::prepared_h() const {
  return cached(prep_h_, h());
}

const pairing::G2Prepared& PublicKey::prepared_h_gamma() const {
  return cached(prep_h_gamma_, h_powers.at(1));
}

const FixedBaseTables& PublicKey::fixed_base_tables() const {
  return cached(fixed_, v, w);
}

const ec::Comb<ec::G2Ops>& PublicKey::h_comb() const {
  return cached(h_comb_, h());
}

std::shared_ptr<const ec::G2PowersMsm> PublicKey::powers_msm(
    std::size_t need) const {
  need = std::min(need, h_powers.size());
  auto cur = std::atomic_load_explicit(&prep_msm_, std::memory_order_acquire);
  if (cur && cur->size() >= need) return cur;
  // Cover at least `need` powers, growing geometrically (and jumping
  // straight to the full key once past half of it), so steadily growing
  // receiver sets trigger at most O(log m) rebuilds.
  std::size_t size = std::max(need, cur ? 2 * cur->size() : need);
  if (2 * size >= h_powers.size()) size = h_powers.size();
  auto fresh = std::make_shared<const ec::G2PowersMsm>(
      std::span<const ec::G2>(h_powers.data(), size));
  while (true) {
    if (cur && cur->size() >= need) return cur;
    if (std::atomic_compare_exchange_strong(&prep_msm_, &cur, fresh)) {
      return fresh;
    }
  }
}

util::Bytes PublicKey::to_bytes() const {
  util::ByteWriter out;
  out.blob(ec::g1_to_bytes(w));
  out.blob(v.to_bytes());
  out.u32(static_cast<std::uint32_t>(h_powers.size()));
  for (const auto& p : h_powers) out.raw(ec::g2_to_bytes(p));
  return out.take();
}

PublicKey PublicKey::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  PublicKey pk;
  pk.w = ec::g1_from_bytes(r.blob());
  pk.v = Gt::from_bytes(r.blob());
  std::uint32_t n = r.u32();
  pk.h_powers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pk.h_powers.push_back(ec::g2_from_bytes(r.raw(ec::g2_serialized_size)));
  }
  r.expect_end();
  if (pk.h_powers.empty()) throw util::DeserializeError("PublicKey: no h powers");
  return pk;
}

util::Bytes UserSecretKey::to_bytes() const {
  util::ByteWriter w;
  w.str(id);
  w.raw(ec::g1_to_bytes(value));
  return w.take();
}

UserSecretKey UserSecretKey::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  UserSecretKey usk;
  usk.id = r.str();
  usk.value = ec::g1_from_bytes(r.raw(ec::g1_serialized_size));
  r.expect_end();
  return usk;
}

util::Bytes BroadcastCiphertext::to_bytes() const {
  util::ByteWriter w;
  w.raw(ec::g1_to_bytes(c1));
  w.raw(ec::g2_to_bytes(c2));
  w.raw(ec::g2_to_bytes(c3));
  return w.take();
}

BroadcastCiphertext BroadcastCiphertext::from_bytes(
    std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  BroadcastCiphertext ct;
  ct.c1 = ec::g1_from_bytes(r.raw(ec::g1_serialized_size));
  ct.c2 = ec::g2_from_bytes(r.raw(ec::g2_serialized_size));
  ct.c3 = ec::g2_from_bytes(r.raw(ec::g2_serialized_size));
  r.expect_end();
  return ct;
}

// ------------------------------------------------------------------- scheme

SystemKeys setup(std::size_t max_receivers, crypto::Drbg& rng) {
  if (max_receivers == 0) {
    throw std::invalid_argument("ibbe: max_receivers must be positive");
  }
  SystemKeys keys;
  keys.msk.g = G1::generator().mul(random_nonzero_fr(rng));
  keys.msk.gamma = random_nonzero_fr(rng);
  G2 h = G2::generator().mul(random_nonzero_fr(rng));

  keys.pk.w = keys.msk.g.mul(keys.msk.gamma);
  keys.pk.v = pairing::pairing(keys.msk.g, h);
  keys.pk.h_powers.reserve(max_receivers + 1);
  keys.pk.h_powers.push_back(h);
  for (std::size_t i = 0; i < max_receivers; ++i) {
    keys.pk.h_powers.push_back(keys.pk.h_powers.back().mul(keys.msk.gamma));
  }
  return keys;
}

UserSecretKey extract_user_key(const MasterSecretKey& msk, const Identity& id) {
  Fr denom = msk.gamma + hash_identity(id);
  if (denom.is_zero()) {
    // Probability 2^-254; would reveal gamma = -H(id).
    throw std::runtime_error("ibbe: identity collides with master secret");
  }
  return {id, msk.g.mul(denom.inverse())};
}

Fr partition_exponent(const MasterSecretKey& msk,
                      std::span<const Identity> ids) {
  Fr prod = Fr::one();
  for (const Identity& id : ids) prod *= msk.gamma + hash_identity(id);
  return prod;
}

EncryptResult encrypt_with_msk(const MasterSecretKey& msk, const PublicKey& pk,
                               std::span<const Identity> receivers,
                               const Fr& k, Fr* exponent) {
  check_receivers(pk, receivers);
  // O(|S|): the product lives in Zr thanks to gamma.
  const Fr s = partition_exponent(msk, receivers);
  if (exponent) *exponent = s;
  return assemble_from_c3(pk, pk.h().mul(s), k);
}

EncryptResult encrypt_with_msk(const MasterSecretKey& msk, const PublicKey& pk,
                               std::span<const Identity> receivers,
                               crypto::Drbg& rng) {
  check_receivers(pk, receivers);  // validate before consuming the DRBG
  return encrypt_with_msk(msk, pk, receivers, random_nonzero_fr(rng));
}

EncryptResult encrypt_public(const PublicKey& pk,
                             std::span<const Identity> receivers,
                             crypto::Drbg& rng) {
  check_receivers(pk, receivers);
  // O(|S|^2) polynomial expansion, then |S|+1 G2 exponentiations.
  auto coef = expand_polynomial(receivers, nullptr);
  G2 c3 = evaluate_in_exponent(pk, coef);
  return assemble_from_c3(pk, c3, rng);
}

Fr add_user_with_msk(const MasterSecretKey& msk, BroadcastCiphertext& ct,
                     const Identity& added) {
  const Fr factor = msk.gamma + hash_identity(added);
  ct.c2 = ct.c2.mul(factor);
  ct.c3 = ct.c3.mul(factor);
  return factor;
}

EncryptResult remove_users_with_msk(const MasterSecretKey& msk,
                                    const PublicKey& pk,
                                    const BroadcastCiphertext& ct,
                                    std::span<const Identity> removed,
                                    const Fr& k) {
  G2 c3 = ct.c3.mul(partition_exponent(msk, removed).inverse());
  return assemble_from_c3(pk, c3, k);
}

EncryptResult remove_users_with_msk(const MasterSecretKey& msk,
                                    const PublicKey& pk,
                                    const BroadcastCiphertext& ct,
                                    std::span<const Identity> removed,
                                    crypto::Drbg& rng) {
  return remove_users_with_msk(msk, pk, ct, removed, random_nonzero_fr(rng));
}

EncryptResult rekey(const PublicKey& pk, const BroadcastCiphertext& ct,
                    const Fr& k) {
  return assemble_from_c3(pk, ct.c3, k);
}

EncryptResult rekey(const PublicKey& pk, const BroadcastCiphertext& ct,
                    crypto::Drbg& rng) {
  return assemble_from_c3(pk, ct.c3, rng);
}

EncryptResult encrypt_with_exponent(const PublicKey& pk, const Fr& s,
                                    const Fr& k) {
  const ec::Comb<ec::G2Ops>& h_comb = pk.h_comb();
  EncryptResult out = assemble_without_c2(pk, h_comb.pow(s.to_u256()), k);
  out.ct.c2 = h_comb.pow((k * s).to_u256());
  return out;
}

std::optional<Gt> decrypt(const PublicKey& pk, const UserSecretKey& usk,
                          std::span<const Identity> receivers,
                          const BroadcastCiphertext& ct) {
  auto part = PreparedPartition::prepare(pk, usk, receivers);
  if (!part) return std::nullopt;
  return decrypt(*part, ct);
}

std::optional<PreparedPartition> PreparedPartition::prepare(
    const PublicKey& pk, const UserSecretKey& usk,
    std::span<const Identity> receivers) {
  if (receivers.size() > pk.max_receivers()) return std::nullopt;
  if (std::find(receivers.begin(), receivers.end(), usk.id) ==
      receivers.end()) {
    return std::nullopt;
  }
  // coef = coefficients of prod_{j != i}(x + H(j)); Delta = constant term.
  auto coef = expand_polynomial(receivers, &usk.id);
  const Fr delta_inv = coef[0].inverse();
  // p_i(gamma) = (prod_{j != i}(gamma + H(j)) - Delta) / gamma: strip the
  // constant term and shift degrees down by one. 1/Delta rides along on
  // both pairing arguments (bilinearity), so decrypt needs no GT tail:
  //   e(C1, h^p_i)^(1/Delta) = e(C1, h^(p_i / Delta))
  //   e(USK, C2)^(1/Delta)   = e(USK^(1/Delta), C2)
  std::vector<Fr> p_coef(coef.begin() + 1, coef.end());
  for (Fr& c : p_coef) c *= delta_inv;
  PreparedPartition part;
  part.usk_scaled_ = usk.value.mul(delta_inv);
  part.h_pi_ = pairing::G2Prepared(evaluate_in_exponent(pk, p_coef));
  return part;
}

Gt decrypt(const PreparedPartition& part, const BroadcastCiphertext& ct) {
  // bk = e(C1, h^(p_i/Delta)) * e(USK^(1/Delta), C2): only C2's line table
  // is ciphertext-dependent. One shared-squaring 2-pair multi-pairing with a
  // single final exponentiation.
  pairing::G2Prepared c2_prep(ct.c2);
  std::array<pairing::PairingInput, 2> inputs = {
      {{ct.c1, &part.h_pi()}, {part.usk_scaled(), &c2_prep}}};
  return pairing::pairing_product_prepared(inputs);
}

G2 compute_c3_public(const PublicKey& pk, std::span<const Identity> receivers) {
  check_receivers(pk, receivers);
  auto coef = expand_polynomial(receivers, nullptr);
  return evaluate_in_exponent(pk, coef);
}

bool verify_user_key(const PublicKey& pk, const UserSecretKey& usk) {
  if (pk.h_powers.size() < 2) return false;
  // e(usk, h^gamma) * e(usk^H(id), h) == v: moving H(id) to the (4x cheaper)
  // G1 side leaves both G2 arguments fixed per PK, so the cached line tables
  // and the shared-squaring multi-pairing do all the work.
  std::array<pairing::PairingInput, 2> inputs = {{
      {usk.value, &pk.prepared_h_gamma()},
      {usk.value.mul(hash_identity(usk.id)), &pk.prepared_h()},
  }};
  return pairing::pairing_product_prepared(inputs) == pk.v;
}

}  // namespace ibbe::core

#include "probes.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/gcm.h"

namespace perfbench {

namespace {

using ibbe::system::SignedEnvelope;
using ibbe::util::Bytes;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
template <typename F>
double median_ns(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return quantile(std::move(t), 0.5);
}

SignedEnvelope read_envelope(ibbe::cloud::CloudStore& store,
                             const std::string& path) {
  auto raw = store.get(path);
  if (!raw) throw std::runtime_error("probe: missing " + path);
  return SignedEnvelope::from_bytes(*raw);
}

}  // namespace

void run_probes(Deployment& d, Metrics& out) {
  using namespace ibbe::system;
  const GroupId gid = Deployment::gid;
  ibbe::cloud::CloudStore& store = d.backing();

  const SignedEnvelope index = read_envelope(store, index_path(gid));
  const GroupManifest manifest = GroupManifest::from_bytes(index.payload);
  const SignedEnvelope bundle_env =
      read_envelope(store, cipher_bundle_path(gid, manifest.cipher_set));
  CipherBundle bundle;
  const double parse_ns =
      median_ns(3, [&] { bundle = CipherBundle::from_bytes(bundle_env.payload); });
  out["metadata.bundle_parse_ms"] = {
      parse_ns / 1e6 / static_cast<double>(std::max<std::size_t>(bundle.entries.size(), 1)),
      "ms", bundle.entries.size()};

  // A subscribed client's partition: its member list from the shards, its
  // live ciphertext from the overlay if one supersedes the bundle entry.
  const ibbe::core::Identity& id = d.readers().front().ids[0];
  std::vector<ibbe::core::Identity> receivers;
  PartitionId pid = 0;
  for (const ShardRef& ref : manifest.shards) {
    const IndexShard shard =
        IndexShard::from_bytes(read_envelope(store, shard_path(gid, ref.sid)).payload);
    for (const auto& [p, members] : shard.partitions) {
      if (std::find(members.begin(), members.end(), id) != members.end()) {
        pid = p;
        receivers = members;
      }
    }
  }
  if (receivers.empty()) throw std::runtime_error("probe: " + id + " not indexed");
  ibbe::enclave::PartitionCiphertext cipher;
  if (auto it = manifest.overlays.find(pid); it != manifest.overlays.end()) {
    cipher = CipherOverlay::from_bytes(
                 read_envelope(store, cipher_overlay_path(gid, it->second)).payload)
                 .cipher;
  } else if (const auto* entry = bundle.find(pid)) {
    cipher = *entry;
  } else {
    throw std::runtime_error("probe: no ciphertext for " + id);
  }
  const auto usk = d.enclave().ecall_extract_user_key(id);
  const auto& pk = d.enclave().public_key();
  const double decrypt_ns = median_ns(3, [&] {
    if (!ibbe::core::decrypt(pk, usk, receivers, cipher.ct)) {
      throw std::runtime_error("probe: decrypt refused a member");
    }
  });
  out["ibbe.decrypt_ms"] = {decrypt_ns / 1e6, "ms", receivers.size()};

  ibbe::crypto::Drbg rng(1);
  const auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  const double sign_ns =
      median_ns(50, [&] { (void)SignedEnvelope::sign(key, index.payload); });
  const double verify_ns = median_ns(50, [&] {
    if (!index.verify(d.admin().verification_point())) {
      throw std::runtime_error("probe: manifest signature does not verify");
    }
  });
  out["pki.sign_us"] = {sign_ns / 1e3, "us", 50};
  out["pki.verify_us"] = {verify_ns / 1e3, "us", 50};

  ibbe::crypto::Aes256Gcm gcm(rng.bytes(32));
  const Bytes nonce = rng.bytes(ibbe::crypto::Aes256Gcm::nonce_size);
  const Bytes block = rng.bytes(1024);
  const double seal_ns = median_ns(200, [&] { (void)gcm.seal(nonce, block); });
  out["crypto.gcm_seal_us_1k"] = {seal_ns / 1e3, "us", 200};
}

}  // namespace perfbench

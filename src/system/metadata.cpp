#include "system/metadata.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "crypto/sha256.h"

namespace ibbe::system {

namespace {

void write_hash(util::ByteWriter& w, const Hash32& h) { w.raw(h); }

Hash32 read_hash(util::ByteReader& r) {
  Hash32 h;
  auto raw = r.raw(32);
  std::copy(raw.begin(), raw.end(), h.begin());
  return h;
}

void write_members(util::ByteWriter& w,
                   const std::vector<core::Identity>& members) {
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) w.str(m);
}

std::vector<core::Identity> read_members(util::ByteReader& r) {
  // Every count is clamped against the remaining buffer by ByteReader::count
  // (each member is at least a u32 str prefix), so a hostile length prefix
  // fails with DeserializeError before any allocation.
  std::size_t n = r.count(4);
  std::vector<core::Identity> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) members.push_back(r.str());
  return members;
}

/// Envelope parse and signature check against `keys`, then
/// `parse(payload)`, which returns the verdict; a DeserializeError anywhere
/// is unauthenticated.
template <typename Record, typename Parse>
Verified<Record> open(std::span<const ec::P256Point> keys,
                      const std::optional<util::Bytes>& stored, Parse&& parse) {
  if (!stored) return {ReadVerdict::absent};
  try {
    auto env = SignedEnvelope::from_bytes(*stored);
    if (!env.verify(keys)) return {ReadVerdict::unauthenticated};
    return parse(std::span<const std::uint8_t>(env.payload));
  } catch (const util::DeserializeError&) {
    return {ReadVerdict::unauthenticated};
  }
}

template <typename Record>
Verified<Record> open(std::span<const ec::P256Point> keys,
                      const std::optional<util::Bytes>& stored) {
  return open<Record>(keys, stored, [](std::span<const std::uint8_t> payload) {
    return Verified<Record>{ReadVerdict::ok, Record::from_bytes(payload)};
  });
}

/// The one CipherBundle parser: reads the framing (gk_epoch, then a counted
/// list of (pid, length-prefixed entry)), calls visit(pid, entry bytes) for
/// each entry in order, and returns the gk_epoch. Decoding an entry is the
/// visitor's choice, so a reader that needs one partition skips the rest.
template <typename Visit>
std::uint64_t walk_bundle(std::span<const std::uint8_t> data, Visit&& visit) {
  util::ByteReader r(data);
  const std::uint64_t gk_epoch = r.u64();
  std::size_t n = r.count(12);  // u64 pid + u32 blob prefix each
  for (std::size_t i = 0; i < n; ++i) {
    auto pid = r.u64();
    visit(pid, r.blob());
  }
  r.expect_end();
  return gk_epoch;
}

}  // namespace

Hash32 content_hash(std::span<const std::uint8_t> data) {
  return crypto::Sha256::hash(data);
}

// ------------------------------------------------------------ GroupManifest

util::Bytes GroupManifest::to_bytes() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const auto& ref : shards) {
    w.u64(ref.sid);
    write_hash(w, ref.hash);
  }
  w.u64(cipher_set);
  w.u32(static_cast<std::uint32_t>(overlays.size()));
  for (const auto& [pid, oid] : overlays) {
    w.u64(pid);
    w.u64(oid);
  }
  w.u64(gk_epoch);
  w.raw(log_head);
  w.raw(freshness.to_bytes());
  w.u64(delta_base);
  write_hash(w, delta_hash);
  return w.take();
}

GroupManifest GroupManifest::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  GroupManifest m;
  std::size_t shards = r.count(40);  // u64 sid + 32-byte hash each
  m.shards.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardRef ref;
    ref.sid = r.u64();
    ref.hash = read_hash(r);
    m.shards.push_back(ref);
  }
  m.cipher_set = r.u64();
  std::size_t overlays = r.count(16);  // u64 pid + u64 oid each
  for (std::size_t i = 0; i < overlays; ++i) {
    auto pid = r.u64();
    m.overlays[pid] = r.u64();
  }
  m.gk_epoch = r.u64();
  m.log_head = read_hash(r);
  m.freshness = enclave::FreshnessToken::from_bytes(
      r.raw(enclave::FreshnessToken::serialized_size));
  m.delta_base = r.u64();
  m.delta_hash = read_hash(r);
  r.expect_end();
  return m;
}

// -------------------------------------------------------------- IndexShard

util::Bytes IndexShard::to_bytes() const {
  util::ByteWriter w;
  w.u64(sid);
  w.u32(static_cast<std::uint32_t>(partitions.size()));
  for (const auto& [pid, members] : partitions) {
    w.u64(pid);
    write_members(w, members);
  }
  return w.take();
}

IndexShard IndexShard::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  IndexShard shard;
  shard.sid = r.u64();
  std::size_t parts = r.count(12);  // u64 pid + u32 member count each
  shard.partitions.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    auto pid = r.u64();
    shard.partitions.emplace_back(pid, read_members(r));
  }
  r.expect_end();
  return shard;
}

// ------------------------------------------------------------ CipherBundle

const enclave::PartitionCiphertext* CipherBundle::find(PartitionId pid) const {
  for (const auto& [id, cipher] : entries) {
    if (id == pid) return &cipher;
  }
  return nullptr;
}

util::Bytes CipherBundle::to_bytes() const {
  // Every entry's C1 (G1) and C2, C3 (G2) go affine through one batch
  // inversion per group (Montgomery's trick) instead of three field
  // inversions per entry; the bytes are those of the per-entry encoding.
  const std::size_t n = entries.size();
  std::vector<ec::G1> c1(n);
  std::vector<ec::G2> c23(2 * n);
  std::size_t size = 8 + 4;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cipher = entries[i].second;
    c1[i] = cipher.ct.c1;
    c23[2 * i] = cipher.ct.c2;
    c23[2 * i + 1] = cipher.ct.c3;
    size += 8 + 4 + cipher.serialized_size();
  }
  const auto a1 = ec::G1::batch_to_affine(c1);
  const auto a23 = ec::G2::batch_to_affine(c23);

  util::ByteWriter w;
  w.reserve(size);
  w.u64(gk_epoch);
  w.u32(static_cast<std::uint32_t>(n));
  // C1 || C2 || C3, as BroadcastCiphertext::to_bytes lays them out.
  std::array<std::uint8_t, core::BroadcastCiphertext::serialized_size> ct{};
  const auto c1_out = std::span<std::uint8_t>(ct).first(ec::g1_serialized_size);
  const auto c2_out = std::span<std::uint8_t>(ct).subspan(
      ec::g1_serialized_size, ec::g2_serialized_size);
  const auto c3_out = std::span<std::uint8_t>(ct).last(ec::g2_serialized_size);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [pid, cipher] = entries[i];
    ec::g1_affine_to_bytes(a1[i], c1_out);
    ec::g2_affine_to_bytes(a23[2 * i], c2_out);
    ec::g2_affine_to_bytes(a23[2 * i + 1], c3_out);
    w.u64(pid);
    w.u32(static_cast<std::uint32_t>(cipher.serialized_size()));
    cipher.write(w, ct);
  }
  return w.take();
}

CipherBundle CipherBundle::from_bytes(std::span<const std::uint8_t> data) {
  CipherBundle bundle;
  bundle.gk_epoch = walk_bundle(data, [&](PartitionId pid, util::Bytes entry) {
    bundle.entries.emplace_back(
        pid, enclave::PartitionCiphertext::from_bytes(entry));
  });
  return bundle;
}

util::Bytes CipherOverlay::to_bytes() const {
  util::ByteWriter w;
  w.u64(pid);
  w.u64(gk_epoch);
  w.blob(cipher.to_bytes());
  return w.take();
}

CipherOverlay CipherOverlay::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  CipherOverlay overlay;
  overlay.pid = r.u64();
  overlay.gk_epoch = r.u64();
  overlay.cipher = enclave::PartitionCiphertext::from_bytes(r.blob());
  r.expect_end();
  return overlay;
}

// -------------------------------------------------------------- IndexDelta

util::Bytes IndexDelta::to_bytes() const {
  util::ByteWriter w;
  w.u64(seq);
  write_hash(w, prev_delta_hash);
  w.raw(prev_log_head);
  w.raw(log_head);
  w.u32(static_cast<std::uint32_t>(ops.size()));
  for (const auto& op : ops) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    switch (op.kind) {
      case DeltaOp::Kind::add_member:
      case DeltaOp::Kind::remove_member:
        w.str(op.user);
        w.u64(op.pid);
        break;
      case DeltaOp::Kind::repartition:
        w.u32(static_cast<std::uint32_t>(op.dropped.size()));
        for (PartitionId pid : op.dropped) w.u64(pid);
        w.u32(static_cast<std::uint32_t>(op.created.size()));
        for (const auto& [pid, members] : op.created) {
          w.u64(pid);
          write_members(w, members);
        }
        break;
    }
  }
  return w.take();
}

IndexDelta IndexDelta::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  IndexDelta d;
  d.seq = r.u64();
  d.prev_delta_hash = read_hash(r);
  d.prev_log_head = read_hash(r);
  d.log_head = read_hash(r);
  std::size_t nops = r.count(1);  // each op is at least its kind byte
  d.ops.reserve(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    DeltaOp op;
    auto kind = r.u8();
    switch (kind) {
      case static_cast<std::uint8_t>(DeltaOp::Kind::add_member):
      case static_cast<std::uint8_t>(DeltaOp::Kind::remove_member):
        op.kind = static_cast<DeltaOp::Kind>(kind);
        op.user = r.str();
        op.pid = r.u64();
        break;
      case static_cast<std::uint8_t>(DeltaOp::Kind::repartition): {
        op.kind = DeltaOp::Kind::repartition;
        std::size_t dropped = r.count(8);
        op.dropped.reserve(dropped);
        for (std::size_t k = 0; k < dropped; ++k) op.dropped.push_back(r.u64());
        std::size_t created = r.count(12);
        op.created.reserve(created);
        for (std::size_t k = 0; k < created; ++k) {
          auto pid = r.u64();
          op.created.emplace_back(pid, read_members(r));
        }
        break;
      }
      default:
        throw util::DeserializeError("IndexDelta: unknown op kind");
    }
    d.ops.push_back(std::move(op));
  }
  r.expect_end();
  return d;
}

// ------------------------------------------------------------- CachedIndex

void CachedIndex::add_partition(PartitionId pid,
                                std::vector<core::Identity> members) {
  partitions_.emplace_back(pid, std::move(members));
  map_built_ = false;
  user_map_.clear();
}

std::size_t CachedIndex::partition_index(PartitionId pid) const {
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (partitions_[p].first == pid) return p;
  }
  return partitions_.size();
}

void CachedIndex::build_map() const {
  if (map_built_) return;
  user_map_.clear();
  user_map_.reserve(member_count());
  for (const auto& [pid, members] : partitions_) {
    for (const auto& m : members) user_map_.emplace(m, pid);
  }
  map_built_ = true;
}

std::optional<PartitionId> CachedIndex::find_user(
    const core::Identity& id) const {
  build_map();
  auto it = user_map_.find(id);
  if (it == user_map_.end()) return std::nullopt;
  return it->second;
}

const std::vector<core::Identity>* CachedIndex::members_of(
    PartitionId pid) const {
  auto p = partition_index(pid);
  if (p == partitions_.size()) return nullptr;
  return &partitions_[p].second;
}

std::size_t CachedIndex::member_count() const {
  std::size_t total = 0;
  for (const auto& [pid, members] : partitions_) total += members.size();
  return total;
}

bool CachedIndex::apply_op(const DeltaOp& op) {
  build_map();  // every op below keeps it current
  switch (op.kind) {
    case DeltaOp::Kind::add_member: {
      if (!user_map_.emplace(op.user, op.pid).second) return false;
      auto p = partition_index(op.pid);
      if (p == partitions_.size()) {
        partitions_.emplace_back(op.pid, std::vector<core::Identity>{op.user});
      } else {
        partitions_[p].second.push_back(op.user);
      }
      return true;
    }
    case DeltaOp::Kind::remove_member: {
      auto p = partition_index(op.pid);
      if (p == partitions_.size()) return false;
      auto& members = partitions_[p].second;
      auto it = std::find(members.begin(), members.end(), op.user);
      if (it == members.end()) return false;
      members.erase(it);
      if (members.empty()) {
        partitions_.erase(partitions_.begin() + static_cast<std::ptrdiff_t>(p));
      }
      user_map_.erase(op.user);
      return true;
    }
    case DeltaOp::Kind::repartition: {
      for (PartitionId pid : op.dropped) {
        auto p = partition_index(pid);
        if (p == partitions_.size()) return false;
        for (const auto& m : partitions_[p].second) user_map_.erase(m);
        partitions_.erase(partitions_.begin() + static_cast<std::ptrdiff_t>(p));
      }
      for (const auto& [pid, members] : op.created) {
        if (partition_index(pid) != partitions_.size()) return false;
        for (const auto& m : members) {
          if (!user_map_.emplace(m, pid).second) return false;
        }
        partitions_.emplace_back(pid, members);
      }
      return true;
    }
  }
  return false;
}

bool CachedIndex::apply(const IndexDelta& d) {
  // Chain check: exactly the next commit, chained from our log head. A
  // duplicate (seq <= counter) or a gap (seq > counter+1) is rejected
  // without touching the view.
  if (d.seq != counter + 1 || d.prev_log_head != log_head) return false;
  for (const auto& op : d.ops) {
    if (!apply_op(op)) return false;
  }
  counter = d.seq;
  log_head = d.log_head;
  return true;
}

// ----------------------------------------------------------- SignedEnvelope

util::Bytes SignedEnvelope::to_bytes() const {
  util::ByteWriter w;
  w.blob(payload);
  w.raw(signature.to_bytes());
  return w.take();
}

SignedEnvelope SignedEnvelope::from_bytes(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  SignedEnvelope env;
  env.payload = r.blob();
  env.signature =
      pki::EcdsaSignature::from_bytes(r.raw(pki::EcdsaSignature::serialized_size));
  r.expect_end();
  return env;
}

SignedEnvelope SignedEnvelope::sign(const pki::EcdsaKeyPair& key,
                                    util::Bytes payload) {
  SignedEnvelope env;
  env.payload = std::move(payload);
  env.signature = key.sign(env.payload);
  return env;
}

bool SignedEnvelope::verify(const ec::P256Point& admin_pub) const {
  return pki::ecdsa_verify(admin_pub, payload, signature);
}

bool SignedEnvelope::verify(std::span<const ec::P256Point> admin_keys) const {
  return std::any_of(admin_keys.begin(), admin_keys.end(),
                     [&](const ec::P256Point& key) { return verify(key); });
}

// ----------------------------------------------------------- MetadataReader

Verified<GroupManifest> MetadataReader::manifest(
    const std::optional<util::Bytes>& stored, const GroupId& gid,
    const ec::P256Point* freshness_key) const {
  auto read = open<GroupManifest>(admin_keys_, stored);
  if (!read.ok() || !freshness_key) return read;
  const GroupManifest& m = read.record;
  const auto& tok = m.freshness;
  if (tok.counter == 0 || !tok.verify(*freshness_key, gid) ||
      tok.gk_epoch != m.gk_epoch || tok.log_head != m.log_head) {
    return {ReadVerdict::unauthenticated};
  }
  return read;
}

Verified<IndexShard> MetadataReader::shard(
    const std::optional<util::Bytes>& stored, const ShardRef& ref) const {
  // A replica serving old bytes under a live name (or a torn write).
  if (stored && content_hash(*stored) != ref.hash) return {ReadVerdict::stale};
  return open<IndexShard>(admin_keys_, stored);
}

// A correctly signed cipher object of another partition or key epoch (say,
// from before a revocation, whose key the revoked members know) served under
// a live name is stale, never usable.
Verified<CipherBundle> MetadataReader::bundle(
    const std::optional<util::Bytes>& stored, const GroupManifest& m) const {
  auto read = open<CipherBundle>(admin_keys_, stored);
  if (read.ok() && read.record.gk_epoch != m.gk_epoch) {
    return {ReadVerdict::stale};
  }
  return read;
}

Verified<enclave::PartitionCiphertext> MetadataReader::bundle_entry(
    const std::optional<util::Bytes>& stored, const GroupManifest& m,
    PartitionId pid) const {
  using Entry = Verified<enclave::PartitionCiphertext>;
  return open<enclave::PartitionCiphertext>(
      admin_keys_, stored, [&](std::span<const std::uint8_t> payload) {
        Entry read{ReadVerdict::absent};
        const auto gk_epoch =
            walk_bundle(payload, [&](PartitionId id, util::Bytes entry) {
              // The first match, as CipherBundle::find returns.
              if (id != pid || read.ok()) return;
              read = {ReadVerdict::ok,
                      enclave::PartitionCiphertext::from_bytes(entry)};
            });
        return gk_epoch == m.gk_epoch ? read : Entry{ReadVerdict::stale};
      });
}

Verified<CipherOverlay> MetadataReader::overlay(
    const std::optional<util::Bytes>& stored, const GroupManifest& m,
    PartitionId pid) const {
  auto read = open<CipherOverlay>(admin_keys_, stored);
  const auto& rec = read.record;
  if (read.ok() && (rec.pid != pid || rec.gk_epoch != m.gk_epoch)) {
    return {ReadVerdict::stale};
  }
  return read;
}

util::Bytes FreshnessObservation::to_bytes() const {
  util::ByteWriter w;
  w.u64(counter);
  w.raw(log_head);
  return w.take();
}

FreshnessObservation FreshnessObservation::from_bytes(
    std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  FreshnessObservation obs;
  obs.counter = r.u64();
  obs.log_head = read_hash(r);
  r.expect_end();
  return obs;
}

std::string group_dir(const GroupId& gid) { return "groups/" + gid; }

std::string index_path(const GroupId& gid) { return group_dir(gid) + "/index"; }

std::string shard_path(const GroupId& gid, std::uint64_t sid) {
  return group_dir(gid) + "/s" + std::to_string(sid);
}

std::string cipher_bundle_path(const GroupId& gid, std::uint64_t id) {
  return group_dir(gid) + "/c" + std::to_string(id);
}

std::string cipher_overlay_path(const GroupId& gid, std::uint64_t id) {
  return group_dir(gid) + "/o" + std::to_string(id);
}

std::string delta_path(const GroupId& gid, std::uint64_t seq) {
  return group_dir(gid) + "/d" + std::to_string(seq);
}

std::string sealed_gk_path(const GroupId& gid, std::uint64_t epoch) {
  return group_dir(gid) + "/gk" + std::to_string(epoch) + ".sealed";
}

std::string gossip_dir(const GroupId& gid) { return "gossip/" + gid; }

std::string gossip_path(const GroupId& gid, const std::string& observer) {
  return gossip_dir(gid) + "/" + observer;
}

std::optional<ObjectName> parse_object_path(const GroupId& gid,
                                            const std::string& path) {
  struct Form {
    std::string_view prefix, suffix;
    ObjectName::Kind kind;
  };
  static constexpr Form forms[] = {
      {"s", "", ObjectName::Kind::shard},
      {"c", "", ObjectName::Kind::cipher_bundle},
      {"o", "", ObjectName::Kind::cipher_overlay},
      {"d", "", ObjectName::Kind::delta},
      {"gk", ".sealed", ObjectName::Kind::sealed_gk},
  };
  const std::string dir = group_dir(gid) + "/";
  if (!path.starts_with(dir)) return std::nullopt;
  const std::string_view name = std::string_view(path).substr(dir.size());
  for (const auto& form : forms) {
    if (!name.starts_with(form.prefix) || !name.ends_with(form.suffix) ||
        name.size() <= form.prefix.size() + form.suffix.size()) {
      continue;
    }
    // The digit parse must consume everything between prefix and suffix,
    // which keeps "oplog", "index" and "s12x" out.
    const char* first = name.data() + form.prefix.size();
    const char* last = name.data() + name.size() - form.suffix.size();
    std::uint64_t id = 0;
    auto [ptr, ec] = std::from_chars(first, last, id);
    if (ec == std::errc() && ptr == last) return ObjectName{form.kind, id};
  }
  return std::nullopt;
}

}  // namespace ibbe::system

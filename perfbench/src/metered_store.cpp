#include "metered_store.h"

#include "system/oplog.h"

namespace perfbench {

using ibbe::util::Bytes;

namespace {

/// "groups/g/s0" -> "groups/g/s": the helper's output minus the id.
std::string stem(std::string path, const std::string& suffix) {
  path.resize(path.size() - suffix.size());
  return path;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

PathClassifier::PathClassifier(const ibbe::system::GroupId& gid)
    : index_(ibbe::system::index_path(gid)),
      log_(ibbe::system::oplog_path(gid)),
      shard_(stem(ibbe::system::shard_path(gid, 0), "0")),
      bundle_(stem(ibbe::system::cipher_bundle_path(gid, 0), "0")),
      overlay_(stem(ibbe::system::cipher_overlay_path(gid, 0), "0")),
      delta_(stem(ibbe::system::delta_path(gid, 0), "0")),
      gk_(stem(ibbe::system::sealed_gk_path(gid, 0), "0.sealed")),
      gossip_(ibbe::system::gossip_dir(gid) + "/") {}

ObjKind PathClassifier::classify(const std::string& path) const {
  if (path == index_) return ObjKind::manifest;
  if (path == log_) return ObjKind::log;
  if (starts_with(path, gossip_)) return ObjKind::gossip;
  if (starts_with(path, gk_)) return ObjKind::gk;  // before the 1-letter stems
  if (starts_with(path, shard_)) return ObjKind::shard;
  if (starts_with(path, bundle_)) return ObjKind::bundle;
  if (starts_with(path, overlay_)) return ObjKind::overlay;
  if (starts_with(path, delta_)) return ObjKind::delta;
  return ObjKind::other;
}

MeteredStore::MeteredStore(ibbe::cloud::CloudStore& inner, Layer layer,
                           const ibbe::system::GroupId& gid)
    : inner_(inner), layer_(layer), classify_(gid) {}

std::uint64_t MeteredStore::put(const std::string& path, Bytes value) {
  Scope span(layer_, Verb::put, classify_.classify(path));
  const auto n = value.size();
  auto version = inner_.put(path, std::move(value));
  up_ += n;
  span.set_bytes(n);
  return version;
}

std::optional<std::uint64_t> MeteredStore::put_cas(const std::string& path,
                                                   Bytes value,
                                                   std::uint64_t expected) {
  Scope span(layer_, Verb::put_cas, classify_.classify(path));
  const auto n = value.size();
  auto version = inner_.put_cas(path, std::move(value), expected);
  up_ += n;
  span.set_bytes(n);
  return version;
}

std::optional<Bytes> MeteredStore::get(const std::string& path) const {
  Scope span(layer_, Verb::get, classify_.classify(path));
  auto value = inner_.get(path);
  const std::uint64_t n = value ? value->size() : 0;
  down_ += n;
  span.set_bytes(n);
  return value;
}

std::optional<MeteredStore::Versioned> MeteredStore::get_versioned(
    const std::string& path) const {
  Scope span(layer_, Verb::get_versioned, classify_.classify(path));
  auto value = inner_.get_versioned(path);
  const std::uint64_t n = value ? value->value.size() : 0;
  down_ += n;
  span.set_bytes(n);
  return value;
}

std::uint64_t MeteredStore::file_version(const std::string& path) const {
  Scope span(layer_, Verb::file_version, classify_.classify(path));
  return inner_.file_version(path);
}

bool MeteredStore::erase(const std::string& path) {
  Scope span(layer_, Verb::erase, classify_.classify(path));
  return inner_.erase(path);
}

std::vector<std::string> MeteredStore::list(const std::string& prefix) const {
  Scope span(layer_, Verb::list);
  return inner_.list(prefix);
}

std::uint64_t MeteredStore::dir_version(const std::string& dir) const {
  Scope span(layer_, Verb::dir_version);
  return inner_.dir_version(dir);
}

std::optional<std::uint64_t> MeteredStore::long_poll(
    const std::string& dir, std::uint64_t since,
    std::chrono::milliseconds timeout) const {
  std::optional<std::uint64_t> version;
  {
    Scope span(layer_, Verb::long_poll);
    version = inner_.long_poll(dir, since, timeout);
  }
  last_poll_return_ = now_ns();
  if (hold_) hold_();
  last_poll_release_ = now_ns();
  return version;
}

ibbe::cloud::CloudStats MeteredStore::stats() const {
  Scope span(layer_, Verb::stats);
  return inner_.stats();
}

std::size_t MeteredStore::stored_bytes() const {
  Scope span(layer_, Verb::stored_bytes);
  return inner_.stored_bytes();
}

}  // namespace perfbench

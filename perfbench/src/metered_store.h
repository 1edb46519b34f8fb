// CloudStore decorator owned by the benchmark.
//
// Forwards every verb to the wrapped store. It always counts the payload
// bytes moved in each direction and remembers when the last long_poll
// returned (the benchmark's fetch_bytes and fetch_ms need both, traced or
// not). An optional hold runs after each long_poll, before the caller gets
// its result. When a Tracer is installed it also records one span per verb: verb,
// object kind, bytes, and — through the thread's open spans — the parent
// AdminApi / ClientApi call and its op id.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <string>

#include "cloud/store.h"
#include "system/metadata.h"
#include "trace.h"

namespace perfbench {

/// Maps a store path to the object kind its metadata.h helper produced.
class PathClassifier {
 public:
  explicit PathClassifier(const ibbe::system::GroupId& gid);
  [[nodiscard]] ObjKind classify(const std::string& path) const;

 private:
  std::string index_, log_, shard_, bundle_, overlay_, delta_, gk_, gossip_;
};

class MeteredStore : public ibbe::cloud::CloudStore {
 public:
  /// `layer` is what this store's spans count as: Layer::cloud for a store
  /// the APIs use directly, Layer::net for a RemoteStore, Layer::served for
  /// the store behind a NetServer.
  MeteredStore(ibbe::cloud::CloudStore& inner, Layer layer,
               const ibbe::system::GroupId& gid);

  std::uint64_t put(const std::string& path, ibbe::util::Bytes value) override;
  [[nodiscard]] std::optional<std::uint64_t> put_cas(
      const std::string& path, ibbe::util::Bytes value,
      std::uint64_t expected) override;
  [[nodiscard]] std::optional<ibbe::util::Bytes> get(
      const std::string& path) const override;
  [[nodiscard]] std::optional<Versioned> get_versioned(
      const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_version(
      const std::string& path) const override;
  bool erase(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override;
  [[nodiscard]] std::uint64_t dir_version(const std::string& dir) const override;
  [[nodiscard]] std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override;
  [[nodiscard]] ibbe::cloud::CloudStats stats() const override;
  [[nodiscard]] std::size_t stored_bytes() const override;

  [[nodiscard]] std::uint64_t bytes_up() const { return up_.load(); }
  [[nodiscard]] std::uint64_t bytes_down() const { return down_.load(); }
  /// now_ns() when the wrapped store's most recent long_poll returned
  /// (0 = never).
  [[nodiscard]] std::int64_t last_poll_return_ns() const {
    return last_poll_return_.load();
  }
  /// now_ns() when the most recent long_poll handed its result back, after
  /// any hold (0 = never).
  [[nodiscard]] std::int64_t last_poll_release_ns() const {
    return last_poll_release_.load();
  }
  /// Runs `hold` after each long_poll returns, before its result is handed
  /// back; an empty function removes it. Set only while no thread uses the
  /// store.
  void set_poll_hold(std::function<void()> hold) { hold_ = std::move(hold); }

 private:
  ibbe::cloud::CloudStore& inner_;
  Layer layer_;
  PathClassifier classify_;
  mutable std::atomic<std::uint64_t> up_{0};
  mutable std::atomic<std::uint64_t> down_{0};
  mutable std::atomic<std::int64_t> last_poll_return_{0};
  mutable std::atomic<std::int64_t> last_poll_release_{0};
  std::function<void()> hold_;
};

}  // namespace perfbench

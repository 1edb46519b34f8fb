// One IBBE-SGX deployment as the benchmark drives it: an enclave, the admin,
// the cloud store (in process, or behind a live loopback NetServer), and the
// subscribed clients, three reader threads' worth of two clients each.
//
// Constructing a Deployment IS the set-up the setup_s metric times: enclave
// load, create_group, provisioning of every subscribed client (extract +
// verify_credentials), server start and handshakes, and each client's first
// cold fetch (three threads, one per reader, two clients each).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metered_store.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "sgx/enclave.h"
#include "system/admin.h"
#include "system/client.h"

namespace perfbench {

constexpr int reader_threads = 3;
constexpr int clients_per_reader = 2;

struct Shape {
  std::size_t partition_size = 0;
  bool wire = false;  // live loopback NetServer + one RemoteStore per thread
};

/// Joins every thread on scope exit, exception paths included.
struct JoinAll {
  std::vector<std::thread>& threads;
  ~JoinAll() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

/// One timed interval on one thread (tracer thread number; -1 untraced).
struct Segment {
  int thread = -1;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// A reader thread's clients: `parked` waits in wait_for_update, `active`
/// is fetched when it wakes (or both fetch in a loop on million_reads).
struct Reader {
  std::unique_ptr<ibbe::net::RemoteStore> remote;  // wire only
  std::unique_ptr<MeteredStore> store;             // what both clients use
  std::unique_ptr<ibbe::system::ClientApi> clients[clients_per_reader];
  ibbe::core::Identity ids[clients_per_reader];
};

class Deployment {
 public:
  static constexpr const char* gid = "g";

  /// `subscribed` holds reader_threads * clients_per_reader members, reader
  /// r's clients at [r * clients_per_reader, ...). `setup_op` is the op id
  /// the set-up spans carry. Throws if a cold fetch fails or keys differ.
  Deployment(const Shape& shape,
             const std::vector<ibbe::core::Identity>& members,
             const std::vector<ibbe::core::Identity>& subscribed,
             std::uint64_t seed, std::uint64_t setup_op);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] ibbe::system::AdminApi& admin() { return *admin_; }
  [[nodiscard]] ibbe::enclave::IbbeEnclave& enclave() { return *enclave_; }
  /// The store that holds the data (behind the server on the wire).
  [[nodiscard]] ibbe::cloud::CloudStore& backing() { return backing_; }
  [[nodiscard]] MeteredStore& admin_store() { return *admin_store_; }
  [[nodiscard]] std::vector<Reader>& readers() { return readers_; }
  /// nullptr for in-process deployments.
  [[nodiscard]] ibbe::net::NetServer* server() { return server_.get(); }
  [[nodiscard]] ibbe::net::RemoteStore* admin_remote() {
    return admin_remote_.get();
  }
  [[nodiscard]] const ibbe::util::Bytes& first_key() const { return first_key_; }
  /// The set-up's critical path, for span attribution (traced runs).
  [[nodiscard]] const std::vector<Segment>& setup_segments() const {
    return setup_segments_;
  }

  /// A fresh client for `id` on the admin's connection (the revoked-member
  /// check after the timed window).
  [[nodiscard]] std::unique_ptr<ibbe::system::ClientApi> make_client(
      const ibbe::core::Identity& id);

 private:
  [[nodiscard]] ibbe::net::RemoteStoreConfig remote_config() const;
  [[nodiscard]] std::unique_ptr<ibbe::system::ClientApi> provision(
      ibbe::cloud::CloudStore& store, const ibbe::core::Identity& id);

  ibbe::sgx::EnclavePlatform platform_{"perfbench"};
  std::unique_ptr<ibbe::enclave::IbbeEnclave> enclave_;
  ibbe::cloud::CloudStore backing_;
  std::unique_ptr<MeteredStore> server_store_;  // wire: what NetServer uses
  std::unique_ptr<ibbe::net::NetServer> server_;
  std::unique_ptr<ibbe::net::RemoteStore> admin_remote_;
  std::unique_ptr<MeteredStore> admin_store_;
  std::unique_ptr<ibbe::system::AdminApi> admin_;
  std::vector<Reader> readers_;
  ibbe::util::Bytes first_key_;
  std::vector<Segment> setup_segments_;
};

}  // namespace perfbench

// GroupScheme adapter: the full IBBE-SGX stack (enclave + partitioning +
// cloud metadata) behind the common interface used by the trace replayer and
// the comparison benchmarks.
//
// The fault-plan constructor wraps the deployment's store in a
// FaultInjectingStore and turns the adapter into a self-healing harness:
// every membership mutation runs under with_crash_recovery(), which models a
// process death (cloud::CrashError) by discarding the AdminApi, starting a
// fresh one, running AdminApi::recover() and re-issuing the (idempotent)
// operation. The model-based differential tests drive this against the same
// oracle as the fault-free deployments.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "cloud/fault.h"
#include "cloud/store.h"
#include "he/scheme.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "system/admin.h"
#include "system/client.h"

namespace ibbe::system {

/// Parameters for the networked deployment: the whole stack runs over a real
/// loopback NetServer, with every connection's wire subjected to `faults`.
struct RemotePlan {
  net::NetFaultPlan faults;
  /// Per-attempt response deadline. Small on purpose: dropped frames are
  /// detected by this, so the differential suites' wall clock scales with it.
  std::chrono::milliseconds request_deadline{250};
  /// Wire-fault retry budget per RPC (delays are zeroed, like the fault-plan
  /// deployments' store retries).
  int max_attempts = 10;
};

class IbbeSgxScheme : public he::GroupScheme {
 public:
  /// Builds a self-contained deployment: platform, enclave sized for
  /// `partition_size`, zero-latency cloud store, one administrator.
  explicit IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed = 0);

  /// Same deployment, but all cloud traffic passes through a
  /// FaultInjectingStore running `plan` (crashes included), the op-log is on,
  /// and retry delays are zeroed so tests stay fast.
  IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                const cloud::FaultPlan& plan);

  /// The Byzantine deployment: the store is a MaliciousStore running
  /// `malice` (rollback / withhold / equivocation schedules) with a
  /// FaultInjectingStore on top for the fail-stop tier, clients verify
  /// enclave-anchored freshness and gossip their observations, and every
  /// mutation still runs under crash recovery. Differential tests hold this
  /// stack to the fault-free oracle.
  IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                const cloud::FaultPlan& plan,
                const cloud::MaliciousPlan& malice);

  /// The networked deployment: a NetServer over the in-process store, the
  /// admin and every client on their own RemoteStore connection (as real
  /// clients would be), all wire traffic through one seeded
  /// FaultInjectingTransport schedule — drops, duplicates, torn frames and
  /// mid-mutation disconnects included. Differential tests hold this stack
  /// to the same fault-free oracle as the in-process deployments.
  IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                const RemotePlan& plan);

  [[nodiscard]] std::string name() const override;
  void create_group(std::span<const core::Identity> members) override;
  void add_user(const core::Identity& id) override;
  void remove_user(const core::Identity& id) override;
  [[nodiscard]] std::optional<util::Bytes> user_decrypt(
      const core::Identity& id) override;
  [[nodiscard]] std::size_t metadata_size() const override;
  [[nodiscard]] std::size_t group_size() const override;

  [[nodiscard]] AdminApi& admin() { return *admin_; }
  [[nodiscard]] enclave::IbbeEnclave& enclave() { return *enclave_; }
  [[nodiscard]] cloud::CloudStore& cloud() { return *cloud_; }
  /// Present only for fault-plan deployments.
  [[nodiscard]] cloud::FaultInjectingStore* fault_store() {
    return fault_store_.get();
  }
  /// Present only for Byzantine deployments.
  [[nodiscard]] cloud::MaliciousStore* malicious_store() {
    return malicious_store_.get();
  }
  /// Present only for remote deployments.
  [[nodiscard]] net::NetServer* net_server() { return server_.get(); }
  [[nodiscard]] net::NetFaultSchedule* net_schedule() {
    return net_schedule_.get();
  }
  /// Simulated process deaths survived so far.
  [[nodiscard]] std::uint64_t admin_restarts() const { return restarts_; }

 private:
  /// Shared body of the public constructors: the platform, enclave, cloud,
  /// admin key and config, then the store stack (a MaliciousStore when
  /// `malice`, a FaultInjectingStore on top when `plan`, a NetServer and the
  /// admin's RemoteStore when `remote`), then the administrator over it.
  IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                const cloud::FaultPlan* plan, const cloud::MaliciousPlan* malice,
                const RemotePlan* remote);

  /// The store the admin and the clients actually talk to.
  [[nodiscard]] cloud::CloudStore& store() {
    if (remote_admin_) return *remote_admin_;
    return fault_store_ ? static_cast<cloud::CloudStore&>(*fault_store_)
                        : *cloud_;
  }
  /// A fresh wire connection under the shared fault schedule (remote only).
  [[nodiscard]] std::unique_ptr<net::RemoteStore> make_remote_store();
  /// Runs `op`, treating every CrashError as a process death: restart the
  /// admin, recover, re-issue.
  void with_crash_recovery(const std::function<void()>& op);
  void restart_admin();
  ClientApi& client_for(const core::Identity& id);

  std::size_t partition_size_;
  std::uint64_t seed_;
  std::unique_ptr<sgx::EnclavePlatform> platform_;
  std::unique_ptr<enclave::IbbeEnclave> enclave_;
  std::unique_ptr<cloud::CloudStore> cloud_;
  std::unique_ptr<cloud::MaliciousStore> malicious_store_;  // wraps cloud_
  std::unique_ptr<cloud::FaultInjectingStore> fault_store_;  // wraps the above
  // Remote deployments only. Declaration order is destruction-critical: the
  // clients_/admin_ below (destroyed first) reference the RemoteStores,
  // which reference the server, which references cloud_.
  std::optional<RemotePlan> remote_plan_;
  std::unique_ptr<net::NetServer> server_;            // serves *cloud_
  std::shared_ptr<net::NetFaultSchedule> net_schedule_;
  std::unique_ptr<net::RemoteStore> remote_admin_;    // the admin's wire
  std::map<core::Identity, std::unique_ptr<net::RemoteStore>> client_wires_;
  pki::EcdsaKeyPair admin_key_;
  AdminConfig admin_config_;
  std::unique_ptr<AdminApi> admin_;
  std::map<core::Identity, std::unique_ptr<ClientApi>> clients_;
  bool group_exists_ = false;
  std::uint64_t restarts_ = 0;
};

}  // namespace ibbe::system

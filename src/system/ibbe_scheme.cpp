#include "system/ibbe_scheme.h"

namespace ibbe::system {

namespace {

const GroupId kGroup = "g";

// A simulated process death mid-recovery (or a mutation that keeps crashing)
// must terminate eventually; real schedules never get close to this.
constexpr int max_restart_attempts = 1000;

AdminConfig make_config(std::size_t partition_size, bool faulty) {
  AdminConfig config;
  config.partition_size = partition_size;
  if (faulty) {
    config.log_operations = true;  // recovery tests audit the log too
    config.retry = config.retry.without_delays();
  }
  return config;
}

pki::EcdsaKeyPair make_admin_key(std::uint64_t seed) {
  crypto::Drbg key_rng(seed + 1);
  return pki::EcdsaKeyPair::generate(key_rng);
}

}  // namespace

IbbeSgxScheme::IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed)
    : IbbeSgxScheme(partition_size, seed, nullptr, nullptr, nullptr) {}

IbbeSgxScheme::IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                             const cloud::FaultPlan& plan)
    : IbbeSgxScheme(partition_size, seed, &plan, nullptr, nullptr) {}

IbbeSgxScheme::IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                             const cloud::FaultPlan& plan,
                             const cloud::MaliciousPlan& malice)
    : IbbeSgxScheme(partition_size, seed, &plan, &malice, nullptr) {}

IbbeSgxScheme::IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                             const RemotePlan& plan)
    : IbbeSgxScheme(partition_size, seed, nullptr, nullptr, &plan) {}

IbbeSgxScheme::IbbeSgxScheme(std::size_t partition_size, std::uint64_t seed,
                             const cloud::FaultPlan* plan,
                             const cloud::MaliciousPlan* malice,
                             const RemotePlan* remote)
    : partition_size_(partition_size),
      seed_(seed),
      platform_(std::make_unique<sgx::EnclavePlatform>("bench-platform")),
      enclave_(std::make_unique<enclave::IbbeEnclave>(*platform_, partition_size)),
      cloud_(std::make_unique<cloud::CloudStore>()),
      admin_key_(make_admin_key(seed)),
      admin_config_(make_config(partition_size, plan || remote)) {
  if (malice) {
    malicious_store_ = std::make_unique<cloud::MaliciousStore>(*cloud_, *malice);
  }
  if (plan) {
    cloud::CloudStore& inner =
        malicious_store_ ? static_cast<cloud::CloudStore&>(*malicious_store_)
                         : *cloud_;
    fault_store_ = std::make_unique<cloud::FaultInjectingStore>(inner, *plan);
  }
  if (remote) {
    remote_plan_ = *remote;
    net::NetServerConfig server_cfg;
    server_cfg.identity_seed = seed + 77;  // deterministic identity per seed
    server_ = std::make_unique<net::NetServer>(*cloud_, server_cfg);
    net_schedule_ = std::make_shared<net::NetFaultSchedule>(remote->faults);
    remote_admin_ = make_remote_store();
  }
  admin_ = std::make_unique<AdminApi>(*enclave_, store(), admin_key_,
                                      admin_config_, seed);
}

std::unique_ptr<net::RemoteStore> IbbeSgxScheme::make_remote_store() {
  net::RemoteStoreConfig cfg;
  cfg.port = server_->port();
  cfg.server_identity = server_->identity_key();
  cfg.retry.max_attempts = remote_plan_->max_attempts;
  cfg.retry = cfg.retry.without_delays();
  cfg.request_deadline = remote_plan_->request_deadline;
  cfg.faults = net_schedule_;
  return std::make_unique<net::RemoteStore>(std::move(cfg));
}

std::string IbbeSgxScheme::name() const {
  std::string base = "IBBE-SGX(|p|=" + std::to_string(partition_size_) + ")";
  if (malicious_store_) return base + "+byzantine";
  if (remote_plan_) return base + "+remote";
  return fault_store_ ? base + "+faults" : base;
}

void IbbeSgxScheme::restart_admin() {
  for (int i = 0; i < max_restart_attempts; ++i) {
    ++restarts_;
    admin_ = std::make_unique<AdminApi>(*enclave_, store(), admin_key_,
                                        admin_config_,
                                        seed_ + 1000 + restarts_);
    try {
      group_exists_ = admin_->recover(kGroup);
      return;
    } catch (const cloud::CrashError&) {
      // died during recovery as well: the next incarnation resumes
    }
  }
  throw std::runtime_error("IbbeSgxScheme: admin cannot finish recovery");
}

void IbbeSgxScheme::with_crash_recovery(const std::function<void()>& op) {
  for (int i = 0; i < max_restart_attempts; ++i) {
    try {
      op();
      return;
    } catch (const cloud::CrashError&) {
      restart_admin();
    }
  }
  throw std::runtime_error("IbbeSgxScheme: operation keeps crashing");
}

void IbbeSgxScheme::create_group(std::span<const core::Identity> members) {
  with_crash_recovery([&] {
    if (group_exists_ && admin_->group_size(kGroup) == members.size()) {
      bool all_present = true;
      for (const auto& m : members) {
        all_present = all_present && admin_->is_member(kGroup, m);
      }
      // The creation committed before a crash; re-running Algorithm 1 would
      // needlessly rotate gk (and break key-stability oracles).
      if (all_present) return;
    }
    admin_->create_group(kGroup, members);
    group_exists_ = true;
  });
}

void IbbeSgxScheme::add_user(const core::Identity& id) {
  if (!group_exists_) {
    std::vector<core::Identity> single{id};
    create_group(single);
    return;
  }
  // Idempotent across crash recovery: if the add committed before the crash,
  // the re-issued call sees the user and no-ops.
  with_crash_recovery([&] { admin_->add_user(kGroup, id); });
}

void IbbeSgxScheme::remove_user(const core::Identity& id) {
  if (!group_exists_) return;
  with_crash_recovery([&] { admin_->remove_user(kGroup, id); });
}

ClientApi& IbbeSgxScheme::client_for(const core::Identity& id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) {
    // Key provisioning is out-of-band setup work (Fig. 3); the replayer only
    // times the decrypt path.
    auto usk = enclave_->ecall_extract_user_key(id);
    cloud::CloudStore* client_store = &store();
    if (remote_plan_) {
      // Each client gets its own wire connection (with its own session and
      // resume state), as real networked clients would.
      auto wire = make_remote_store();
      client_store = wire.get();
      client_wires_.emplace(id, std::move(wire));
    }
    auto client = std::make_unique<ClientApi>(*client_store,
                                              enclave_->public_key(),
                                              std::move(usk),
                                              admin_->verification_point());
    if (fault_store_ || remote_plan_) {
      client->set_retry_policy(util::RetryPolicy{}.without_delays());
    }
    if (malicious_store_) {
      // Byzantine deployments get the full defence: enclave-anchored
      // freshness plus fork-detection gossip keyed by the client identity.
      client->enable_freshness(enclave_->freshness_verification_key());
      client->enable_gossip(id);
    }
    it = clients_.emplace(id, std::move(client)).first;
  }
  return *it->second;
}

std::optional<util::Bytes> IbbeSgxScheme::user_decrypt(const core::Identity& id) {
  if (!group_exists_) return std::nullopt;
  return client_for(id).fetch_group_key(kGroup);
}

std::size_t IbbeSgxScheme::metadata_size() const {
  return group_exists_ ? admin_->metadata_size(kGroup) : 0;
}

std::size_t IbbeSgxScheme::group_size() const {
  return group_exists_ ? admin_->group_size(kGroup) : 0;
}

}  // namespace ibbe::system

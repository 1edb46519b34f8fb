// Degraded-mode perf trajectory: what fault handling costs when it is idle,
// what it costs when the cloud actually misbehaves, and how long crash
// recovery takes at scale.
//
//   admin_op_fault0_us   — one membership mutation (remove+add pair averaged)
//                          through a FaultInjectingStore with every rate at 0:
//                          the injector + commit-protocol overhead on the
//                          fault-free hot path;
//   admin_op_fault1_us   — the same mutation at ~1% fault rates;
//   admin_op_fault10_us  — at ~10% fault rates (retries, CAS re-syncs and
//                          op-log merges dominate);
//   recover_64p_us       — AdminApi::recover() of a committed 64-partition
//                          group: full signed-metadata re-sync, counter
//                          bump-past, orphan sweep;
//   fetch_plain_us       — ClientApi group-key fetch with freshness
//                          verification OFF (admin-signature check only);
//   fetch_verified_us    — the same fetch with enclave-anchored freshness
//                          ON: one extra P-256 verify over the 112-byte
//                          token plus the high-water-mark comparison. The
//                          acceptance bar is <10% over fetch_plain_us;
//   fork_detect_rounds   — poll rounds a client on one side of an
//                          equal-counter fork needs before it reports
//                          `forked` (the protocol guarantees 1: the first
//                          gossip observation from the other side proves
//                          divergence).
//
// Retry backoff delays are zeroed throughout so the numbers measure protocol
// work (re-fetches, re-pushes, signature verifies), not sleep time. All
// schedules are seeded: the run is deterministic.
//
// Usage: bench_fault_suite [--json PATH] [--scale smoke|default|full]
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/fault.h"
#include "common.h"
#include "system/admin.h"
#include "system/client.h"
#include "util/stopwatch.h"

namespace {

using ibbe::cloud::FaultPlan;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::GroupId;

using ibbe::bench::make_users;

/// Mean microseconds per membership mutation on a 24-member, |p|=4 group with
/// all fault rates set around `rate`.
double admin_op_us(double rate, int iters) {
  ibbe::sgx::EnclavePlatform platform("bench-fault");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  ibbe::cloud::CloudStore inner;
  FaultPlan plan;
  plan.seed = 4242;
  plan.put_error_rate = rate;
  plan.ambiguous_put_rate = rate / 2;
  plan.spurious_cas_rate = rate / 2;
  plan.get_error_rate = rate;
  plan.stale_read_rate = rate / 2;
  ibbe::cloud::FaultInjectingStore faulty(inner, plan);
  ibbe::crypto::Drbg rng(7);
  AdminConfig config;
  config.partition_size = 4;
  config.log_operations = true;
  config.retry = ibbe::util::RetryPolicy{}.without_delays();
  AdminApi admin(enclave, faulty, ibbe::pki::EcdsaKeyPair::generate(rng),
                 config, /*seed=*/3);
  const GroupId gid = "g";
  admin.create_group(gid, make_users(24));

  // Warm-up pair, then the timed churn loop: every iteration revokes and
  // re-admits one member (gk rotation + partition re-key + extend).
  admin.remove_user(gid, "u0");
  admin.add_user(gid, "u0");
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    admin.remove_user(gid, "u0");
    admin.add_user(gid, "u0");
  }
  return sw.micros() / (2.0 * iters);
}

/// Mean microseconds for a cold admin to recover a committed 128-member,
/// |p|=2 group: 64 partition fetches + signature verifies, counter scan,
/// orphan sweep.
double recover_64p_us(int iters) {
  ibbe::sgx::EnclavePlatform platform("bench-recover");
  ibbe::enclave::IbbeEnclave enclave(platform, 2);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(9);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  AdminConfig config;
  config.partition_size = 2;
  config.log_operations = true;
  AdminApi builder(enclave, cloud, key, config, /*seed=*/11);
  const GroupId gid = "g";
  builder.create_group(gid, make_users(128));

  double total = 0;
  for (int i = 0; i < iters; ++i) {
    AdminApi cold(enclave, cloud, key, config, /*seed=*/100 + i);
    ibbe::util::Stopwatch sw;
    volatile bool ok = cold.recover(gid);
    total += sw.micros();
    if (!ok) std::fprintf(stderr, "recover failed\n");
  }
  return total / iters;
}

/// Mean microseconds per client group-key fetch on a committed 24-member
/// group, with or without the enclave-anchored freshness check.
double fetch_us(bool verified, int iters) {
  ibbe::sgx::EnclavePlatform platform("bench-fetch");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  ibbe::cloud::CloudStore cloud;
  ibbe::crypto::Drbg rng(13);
  AdminConfig config;
  config.partition_size = 4;
  config.log_operations = true;
  AdminApi admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
                 config, /*seed=*/5);
  const GroupId gid = "g";
  admin.create_group(gid, make_users(24));
  admin.remove_user(gid, "u0");  // a second commit so the counter has moved
  admin.add_user(gid, "u0");

  ibbe::system::ClientApi client(cloud, enclave.public_key(),
                                 enclave.ecall_extract_user_key("u1"),
                                 admin.verification_point());
  if (verified) {
    client.enable_freshness(enclave.freshness_verification_key());
  }
  if (!client.fetch_group_key(gid)) std::fprintf(stderr, "fetch failed\n");
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    volatile bool ok = client.fetch_group_key(gid).has_value();
    if (!ok) std::fprintf(stderr, "fetch failed\n");
  }
  return sw.micros() / iters;
}

/// Poll rounds until a client on one side of an equal-counter fork reports
/// `forked`. Reproduces the equivocation construction from the Byzantine
/// test suite: admin B's index CAS loses to a full commit by admin A inside
/// the CAS window, so B's rejected payload is an enclave-attested view of
/// the same counter with a different log head.
double fork_detect_rounds() {
  ibbe::sgx::EnclavePlatform platform("bench-fork");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  ibbe::cloud::CloudStore inner;
  ibbe::cloud::MaliciousStore malicious(inner, ibbe::cloud::MaliciousPlan{});
  ibbe::cloud::FaultInjectingStore faulty(malicious,
                                          FaultPlan{});  // write hook only
  ibbe::crypto::Drbg rng(17);
  auto key_a = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto key_b = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto config_for = [&](std::uint32_t nonce, const std::string& name,
                        const ibbe::pki::EcdsaKeyPair& peer) {
    AdminConfig config;
    config.partition_size = 3;
    config.admin_nonce = nonce;
    config.admin_name = name;
    config.log_operations = true;
    config.retry = ibbe::util::RetryPolicy{}.without_delays();
    config.peer_verification_keys = {
        ibbe::ec::p256_to_bytes(peer.public_key())};
    return config;
  };
  AdminApi admin_a(enclave, faulty, key_a, config_for(1, "A", key_b), 8);
  AdminApi admin_b(enclave, faulty, key_b, config_for(2, "B", key_a), 9);
  const GroupId gid = "g";
  const std::string index = ibbe::system::index_path(gid);
  admin_a.create_group(gid, make_users(4));
  admin_b.sync_from_cloud(gid);
  bool fired = false;
  faulty.set_write_hook([&](const std::string& path) {
    if (fired || path != index) return;
    fired = true;
    admin_a.add_user(gid, "from-a");
  });
  admin_b.add_user(gid, "from-b");
  auto rejected = malicious.rejected_writes(index);
  if (!fired || rejected.empty()) {
    std::fprintf(stderr, "fork construction failed\n");
    return -1;
  }
  for (const auto& path : inner.list(ibbe::system::gossip_dir(gid))) {
    (void)inner.erase(path);
  }
  const std::size_t fork_gen = 1;
  malicious.pin_view("X", fork_gen);
  malicious.override_path("X", index, rejected[0]);
  malicious.pin_view("Y", fork_gen);

  std::vector<ibbe::ec::P256Point> admin_keys = {key_a.public_key(),
                                                 key_b.public_key()};
  auto make_client = [&](const std::string& id, const std::string& name) {
    ibbe::system::ClientApi client(malicious.view(name), enclave.public_key(),
                                   enclave.ecall_extract_user_key(id),
                                   admin_keys);
    client.set_retry_policy(ibbe::util::RetryPolicy{}.without_delays());
    client.enable_freshness(enclave.freshness_verification_key());
    client.enable_gossip(name);
    return client;
  };
  auto x = make_client("u0", "X");
  auto y = make_client("u1", "Y");
  if (x.fetch(gid).status != ibbe::system::ClientApi::FetchStatus::ok) {
    std::fprintf(stderr, "fork bench: side X did not verify\n");
    return -1;
  }
  int rounds = 0;
  while (rounds < 16) {
    ++rounds;
    if (y.fetch(gid).status == ibbe::system::ClientApi::FetchStatus::forked) {
      return rounds;
    }
  }
  std::fprintf(stderr, "fork bench: divergence never detected\n");
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const ibbe::bench::Scale scale = ibbe::bench::parse_scale(argc, argv);
  const int iters = scale == ibbe::bench::Scale::smoke  ? 5
                    : scale == ibbe::bench::Scale::full ? 100
                                                        : 25;

  std::vector<ibbe::bench::Metric> metrics;
  metrics.push_back({"admin_op_fault0_us", admin_op_us(0.0, iters)});
  metrics.push_back({"admin_op_fault1_us", admin_op_us(0.01, iters)});
  metrics.push_back({"admin_op_fault10_us", admin_op_us(0.10, iters)});
  metrics.push_back({"recover_64p_us", recover_64p_us(iters)});
  metrics.push_back({"fetch_plain_us", fetch_us(false, 4 * iters)});
  metrics.push_back({"fetch_verified_us", fetch_us(true, 4 * iters)});
  metrics.push_back({"fork_detect_rounds", fork_detect_rounds()});

  const bool ok = ibbe::bench::report_metrics(
      argc, argv,
      "fault suite (" + std::string(ibbe::bench::scale_name(scale)) + ")",
      metrics);
  return ok ? 0 : 1;
}

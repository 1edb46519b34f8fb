// Networked front-end performance: the paper's sync experiment replayed
// against a live loopback server instead of an in-process store.
//
//   net_rpc_get_us        — one get() round trip through the full stack
//                           (frame, AES-GCM seal/open both directions, TCP
//                           loopback): the wire tax on the hot read path;
//   net_rpc_put_us        — one put() round trip (mutation + dedup-cache
//                           insert server-side);
//   net_grant_revoke_ops  — sustained membership mutations per second with
//                           the AdminApi driving a RemoteStore: the paper's
//                           grant/revoke throughput, now with every cloud
//                           round trip crossing a real socket;
//   net_poll_p99_ms       — p99 latency from an admin put landing to a
//                           long-polling client's wake-up, with `clients`
//                           concurrent pollers parked on the server (the
//                           Dropbox /longpoll_delta fan-out experiment;
//                           smoke=32 clients, default=128, full=512);
//   net_poll_mean_ms      — mean of the same samples.
//
// All sessions are real: every client its own TCP connection, handshake and
// AEAD session state. No fault schedules — this suite measures the healthy
// wire (bench_fault_suite covers degraded mode for the store; the net fault
// paths are covered by tests/net_test.cpp).
//
// Usage: bench_net_suite [--json PATH] [--scale smoke|default|full]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/store.h"
#include "common.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "system/admin.h"
#include "util/stopwatch.h"

namespace {

using ibbe::cloud::CloudStore;
using ibbe::net::NetServer;
using ibbe::net::NetServerConfig;
using ibbe::net::RemoteStore;
using ibbe::net::RemoteStoreConfig;

RemoteStoreConfig client_config(const NetServer& server) {
  RemoteStoreConfig cfg;
  cfg.port = server.port();
  cfg.server_identity = server.identity_key();
  cfg.retry = ibbe::util::RetryPolicy{}.without_delays();
  cfg.retry.max_attempts = 20;  // busy sheds at startup burst are retried
  cfg.request_deadline = std::chrono::milliseconds(5000);
  return cfg;
}

ibbe::util::Bytes payload_bytes() {
  // A typical wrapped-partition record size.
  return ibbe::util::Bytes(256, 0xab);
}

/// Mean microseconds per RPC round trip over an established session.
double rpc_us(bool mutate, int iters) {
  CloudStore backing;
  NetServer server(backing);
  RemoteStore remote(client_config(server));
  auto payload = payload_bytes();
  remote.put("bench/x", payload);  // connect + warm both paths
  (void)remote.get("bench/x");
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    if (mutate) {
      remote.put("bench/x", payload);
    } else {
      (void)remote.get("bench/x");
    }
  }
  return sw.micros() / iters;
}

/// Sustained membership mutations per second with the admin over the wire.
double grant_revoke_ops(int iters) {
  ibbe::sgx::EnclavePlatform platform("bench-net");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  CloudStore backing;
  NetServer server(backing);
  RemoteStore remote(client_config(server));
  ibbe::crypto::Drbg rng(7);
  ibbe::system::AdminConfig config;
  config.partition_size = 4;
  config.retry = ibbe::util::RetryPolicy{}.without_delays();
  ibbe::system::AdminApi admin(enclave, remote,
                               ibbe::pki::EcdsaKeyPair::generate(rng), config,
                               /*seed=*/3);
  const ibbe::system::GroupId gid = "g";
  std::vector<ibbe::core::Identity> users;
  for (int i = 0; i < 24; ++i) users.push_back(ibbe::bench::numbered("u", i));
  admin.create_group(gid, users);
  admin.remove_user(gid, "u0");  // warm-up pair
  admin.add_user(gid, "u0");
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    admin.remove_user(gid, users[static_cast<std::size_t>(i % 24)]);
    admin.add_user(gid, users[static_cast<std::size_t>(i % 24)]);
  }
  return (2.0 * iters) / sw.seconds();
}

struct PollLatencies {
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

/// Wake-up latency from a put landing to `clients` concurrent long-pollers
/// observing it, over `rounds` sequential publications.
PollLatencies poll_latency_ms(int clients, int rounds) {
  CloudStore backing;
  NetServerConfig scfg;
  scfg.max_sessions = static_cast<std::size_t>(clients) + 8;
  scfg.poll_slots = static_cast<std::size_t>(clients) + 8;
  scfg.request_slots = static_cast<std::size_t>(clients) + 8;
  NetServer server(backing, scfg);

  std::mutex mutex;  // guards stamp + samples
  std::chrono::steady_clock::time_point stamp;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(clients) * rounds);
  std::atomic<int> observed{0};
  std::atomic<int> parked{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> pollers;
  pollers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pollers.emplace_back([&] {
      RemoteStore remote(client_config(server));
      std::uint64_t cursor = remote.dir_version("feed");
      parked.fetch_add(1);
      while (!done.load()) {
        std::optional<std::uint64_t> woke;
        try {
          woke = remote.long_poll("feed", cursor,
                                  std::chrono::milliseconds(500));
        } catch (const ibbe::util::FaultError&) {
          break;  // shutdown race; samples so far stand
        }
        if (!woke) continue;
        auto now = std::chrono::steady_clock::now();
        cursor = *woke;
        {
          std::lock_guard lock(mutex);
          samples.push_back(
              std::chrono::duration<double, std::milli>(now - stamp).count());
        }
        observed.fetch_add(1);
      }
    });
  }

  while (parked.load() < clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RemoteStore writer(client_config(server));
  auto payload = payload_bytes();
  for (int r = 0; r < rounds; ++r) {
    {
      std::lock_guard lock(mutex);
      stamp = std::chrono::steady_clock::now();
    }
    writer.put("feed/f", payload);
    const int target = clients * (r + 1);
    while (observed.load() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  done.store(true);
  for (auto& t : pollers) t.join();

  std::sort(samples.begin(), samples.end());
  PollLatencies out;
  if (!samples.empty()) {
    out.p99_ms = samples[std::min(samples.size() - 1,
                                  static_cast<std::size_t>(
                                      0.99 * static_cast<double>(samples.size())))];
    double sum = 0.0;
    for (double s : samples) sum += s;
    out.mean_ms = sum / static_cast<double>(samples.size());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const ibbe::bench::Scale scale = ibbe::bench::parse_scale(argc, argv);
  const bool smoke = scale == ibbe::bench::Scale::smoke;
  const bool full = scale == ibbe::bench::Scale::full;
  const int rpc_iters = smoke ? 200 : full ? 10000 : 2000;
  const int churn_iters = smoke ? 5 : full ? 100 : 25;
  const int clients = smoke ? 32 : full ? 512 : 128;
  const int rounds = smoke ? 5 : full ? 50 : 20;

  std::vector<ibbe::bench::Metric> metrics;
  metrics.push_back({"net_rpc_get_us", rpc_us(false, rpc_iters)});
  metrics.push_back({"net_rpc_put_us", rpc_us(true, rpc_iters)});
  metrics.push_back({"net_grant_revoke_ops", grant_revoke_ops(churn_iters)});
  auto poll = poll_latency_ms(clients, rounds);
  metrics.push_back({"net_poll_p99_ms", poll.p99_ms});
  metrics.push_back({"net_poll_mean_ms", poll.mean_ms});

  const bool ok = ibbe::bench::report_metrics(
      argc, argv,
      "net suite (" + std::string(ibbe::bench::scale_name(scale)) + ", " +
          std::to_string(clients) + " pollers)",
      metrics);
  return ok ? 0 : 1;
}

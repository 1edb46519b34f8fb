// Fault-injection and crash-consistency tests.
//
// Three layers:
//   1. unit tests for util::RetryPolicy and cloud::FaultInjectingStore
//      (deterministic schedules, armed crash points, stale reads, ...);
//   2. systematic crash-point enumeration: for every mutation k inside every
//      membership operation, crash the admin right before cloud write k,
//      recover in a fresh admin, and assert the group is EXACTLY in the
//      pre-state or the post-state — never in between — with the full
//      invariant set (every member decrypts one key, outsiders fail, the
//      anchored op-log audit passes, no orphaned cloud files);
//   3. regressions for the multi-admin op-log lost-update and for
//      whole-suffix truncation of the audit log.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/fault.h"
#include "cloud/store.h"
#include "system/admin.h"
#include "system/client.h"
#include "system/oplog.h"
#include "test_util.h"
#include "util/retry.h"

namespace {

using ibbe::cloud::CloudStore;
using ibbe::cloud::CrashError;
using ibbe::cloud::FaultInjectingStore;
using ibbe::cloud::FaultPlan;
using ibbe::cloud::IntegrityError;
using ibbe::cloud::TransientError;
using ibbe::core::Identity;
using ibbe::system::AdminApi;
using ibbe::system::AdminConfig;
using ibbe::system::ClientApi;
using ibbe::system::GroupId;
using ibbe::system::LogOp;
using ibbe::system::MembershipLog;
using ibbe::util::Bytes;
using ibbe::util::RetryPolicy;
using ibbe::testutil::make_users;
using ibbe::testutil::numbered;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------- RetryPolicy

TEST(RetryPolicy, ExponentialGrowthWithCap) {
  RetryPolicy p;
  p.jitter = 0.0;
  EXPECT_EQ(p.delay(1), std::chrono::microseconds(200));
  EXPECT_EQ(p.delay(2), std::chrono::microseconds(400));
  EXPECT_EQ(p.delay(3), std::chrono::microseconds(800));
  EXPECT_EQ(p.delay(20), p.max_delay);  // capped
}

TEST(RetryPolicy, JitterIsDeterministicPerSeed) {
  RetryPolicy a, b;
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(a.delay(k), b.delay(k)) << k;
  }
  RetryPolicy c;
  c.seed = 12345;
  bool any_different = false;
  for (int k = 1; k <= 8; ++k) {
    any_different = any_different || (a.delay(k) != c.delay(k));
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, WithoutDelaysZeroesTheBackoff) {
  auto p = RetryPolicy{}.without_delays();
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(p.delay(k), std::chrono::microseconds(0));
  }
}

TEST(RetryFaults, RetriesTransientsThenSucceeds) {
  auto policy = RetryPolicy{}.without_delays();
  int calls = 0;
  std::uint64_t retries = 0;
  int result = ibbe::util::retry_faults(
      policy,
      [&] {
        if (++calls < 3) throw TransientError("flaky");
        return 7;
      },
      &retries);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryFaults, ExhaustsTheAttemptBudget) {
  auto policy = RetryPolicy{}.without_delays();
  int calls = 0;
  EXPECT_THROW(ibbe::util::retry_faults(policy,
                                        [&]() -> int {
                                          ++calls;
                                          throw TransientError("x");
                                        }),
               TransientError);
  EXPECT_EQ(calls, policy.max_attempts);
}

TEST(RetryFaults, NeverSwallowsACrash) {
  auto policy = RetryPolicy{}.without_delays();
  int calls = 0;
  // CrashError is a FaultError of the non-retryable crash kind: a simulated
  // process death must reach the harness on the first throw.
  EXPECT_THROW(ibbe::util::retry_faults(policy,
                                        [&]() -> int {
                                          ++calls;
                                          throw CrashError("died");
                                        }),
               CrashError);
  EXPECT_EQ(calls, 1);
}

TEST(RetryFaults, NeverRetriesAnIntegrityFault) {
  auto policy = RetryPolicy{}.without_delays();
  int calls = 0;
  std::uint64_t retries = 0;
  // Evidence of tampering is never absorbed: retrying cannot help, and a
  // later clean read must not paper over the forged one.
  EXPECT_THROW(ibbe::util::retry_faults(
                   policy,
                   [&]() -> int {
                     ++calls;
                     throw IntegrityError("forged signature");
                   },
                   &retries),
               IntegrityError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

// ---------------------------------------------------- FaultInjectingStore

TEST(FaultStore, ArmedCrashFiresBeforeTheExactMutation) {
  CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  faulty.put("a", bytes_of("1"));
  faulty.arm_crash_after(2);
  faulty.put("b", bytes_of("2"));  // mutation 1 of 2: applies
  EXPECT_THROW(faulty.put("c", bytes_of("3")), CrashError);
  EXPECT_TRUE(inner.get("b").has_value());
  EXPECT_FALSE(inner.get("c").has_value());  // died BEFORE applying
  // One-shot: the next mutation goes through.
  faulty.put("c", bytes_of("3"));
  EXPECT_TRUE(inner.get("c").has_value());
  EXPECT_EQ(faulty.fault_stats().crashes, 1u);
}

TEST(FaultStore, ScheduleIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 99;
  plan.put_error_rate = 0.5;
  auto run = [&](FaultPlan p) {
    CloudStore inner;
    FaultInjectingStore faulty(inner, p);
    std::string outcome;
    for (int i = 0; i < 32; ++i) {
      try {
        faulty.put(numbered("k", i), bytes_of("v"));
        outcome += '.';
      } catch (const TransientError&) {
        outcome += 'X';
      }
    }
    return outcome;
  };
  auto first = run(plan);
  EXPECT_EQ(first, run(plan));  // bit-for-bit replay from the seed
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  plan.seed = 100;
  EXPECT_NE(first, run(plan));
}

TEST(FaultStore, FullMixedOpTraceReplaysByteForByteFromTheSeed) {
  // Stronger than the put-only schedule check above: a mixed-operation run
  // exercising EVERY fault mode must replay its complete observable trace —
  // values served, versions, errors, poll outcomes, and the final counter
  // set — bit-for-bit from the seed alone.
  auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.put_error_rate = 0.1;
    plan.ambiguous_put_rate = 0.1;
    plan.spurious_cas_rate = 0.2;
    plan.get_error_rate = 0.1;
    plan.stale_read_rate = 0.2;
    plan.poll_timeout_rate = 0.3;
    plan.crash_rate = 0.15;
    CloudStore inner;
    FaultInjectingStore faulty(inner, plan);
    std::string trace;
    auto note = [&](const std::string& s) { trace += s + ";"; };
    for (int i = 0; i < 64; ++i) {
      const std::string path = numbered("k", i % 4);
      try {
        switch (i % 6) {
          case 0:
            note("put=" + std::to_string(faulty.put(path, bytes_of("v" + std::to_string(i)))));
            break;
          case 1: {
            auto v = faulty.put_cas(path, bytes_of("c" + std::to_string(i)),
                                    inner.file_version(path));
            note(v ? "cas=" + std::to_string(*v) : "cas-conflict");
            break;
          }
          case 2: {
            auto v = faulty.get(path);
            note(v ? "get=" + std::string(v->begin(), v->end()) : "get-miss");
            break;
          }
          case 3: {
            auto v = faulty.get_versioned(path);
            note(v ? "getv=" + std::string(v->value.begin(), v->value.end()) +
                         "@" + std::to_string(v->version)
                   : "getv-miss");
            break;
          }
          case 4:
            note("list=" + std::to_string(faulty.list("k").size()));
            break;
          case 5: {
            auto v = faulty.long_poll("", 0, std::chrono::milliseconds(0));
            note(v ? "poll=" + std::to_string(*v) : "poll-timeout");
            break;
          }
        }
      } catch (const TransientError&) {
        note("transient");
      } catch (const CrashError&) {
        note("crash");
      }
    }
    auto stats = faulty.fault_stats();
    trace += "|t" + std::to_string(stats.transient_errors) +
             "a" + std::to_string(stats.ambiguous_puts) +
             "s" + std::to_string(stats.spurious_cas) +
             "r" + std::to_string(stats.stale_reads) +
             "p" + std::to_string(stats.poll_timeouts) +
             "c" + std::to_string(stats.crashes);
    return trace;
  };
  auto first = run(2020);
  EXPECT_EQ(first, run(2020));  // byte-identical replay
  EXPECT_NE(first, run(2021));  // a different seed diverges
  // The schedule actually exercised the failure modes it claims to replay.
  EXPECT_NE(first.find("transient"), std::string::npos);
  EXPECT_NE(first.find("crash"), std::string::npos);
}

TEST(FaultStore, AmbiguousPutAppliesThenFails) {
  FaultPlan plan;
  plan.ambiguous_put_rate = 1.0;
  CloudStore inner;
  FaultInjectingStore faulty(inner, plan);
  EXPECT_THROW(faulty.put("x", bytes_of("v")), TransientError);
  EXPECT_EQ(inner.get("x"), bytes_of("v"));  // ... but it landed
}

TEST(FaultStore, SpuriousCasConflictAppliesNothing) {
  FaultPlan plan;
  plan.spurious_cas_rate = 1.0;
  CloudStore inner;
  FaultInjectingStore faulty(inner, plan);
  EXPECT_EQ(faulty.put_cas("x", bytes_of("v"), 0), std::nullopt);
  EXPECT_FALSE(inner.get("x").has_value());
  EXPECT_EQ(faulty.fault_stats().spurious_cas, 1u);
}

TEST(FaultStore, StaleReadServesThePreviousVersion) {
  FaultPlan plan;
  plan.stale_read_rate = 1.0;
  CloudStore inner;
  FaultInjectingStore faulty(inner, plan);
  faulty.put("x", bytes_of("old"));
  faulty.put("x", bytes_of("new"));
  auto stale = faulty.get_versioned("x");
  auto truth = inner.get_versioned("x");
  ASSERT_TRUE(stale.has_value());
  ASSERT_TRUE(truth.has_value());
  EXPECT_EQ(stale->value, bytes_of("old"));
  EXPECT_LT(stale->version, truth->version);
  // A never-overwritten path has no lagging replica to serve.
  faulty.put("fresh", bytes_of("only"));
  EXPECT_EQ(faulty.get("fresh"), bytes_of("only"));
}

TEST(FaultStore, DisablingFaultsKeepsArmedCrashes) {
  FaultPlan plan;
  plan.put_error_rate = 1.0;
  CloudStore inner;
  FaultInjectingStore faulty(inner, plan);
  faulty.set_faults_enabled(false);
  faulty.put("x", bytes_of("v"));  // random fault suppressed
  faulty.arm_crash_after(1);
  EXPECT_THROW(faulty.put("y", bytes_of("v")), CrashError);  // armed one fires
}

TEST(FaultStore, StatsFoldFaultCountersIntoCloudStats) {
  FaultPlan plan;
  plan.ambiguous_put_rate = 1.0;
  CloudStore inner;
  FaultInjectingStore faulty(inner, plan);
  EXPECT_THROW(faulty.put("x", bytes_of("v")), TransientError);
  auto stats = faulty.stats();
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.crashes_injected, 0u);
  EXPECT_EQ(stats.puts, 1u);  // the inner put still counted
}

// ----------------------------------------------- degraded-mode client reads

TEST(ClientDegradedMode, StaleIndexReadsAreRejectedByVersionFloor) {
  ibbe::sgx::EnclavePlatform platform("stale-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  CloudStore inner;
  FaultPlan plan;
  plan.stale_read_rate = 1.0;
  FaultInjectingStore faulty(inner, plan);
  ibbe::crypto::Drbg rng(21);
  AdminConfig config;
  config.partition_size = 3;
  config.retry = RetryPolicy{}.without_delays();
  AdminApi admin(enclave, faulty, ibbe::pki::EcdsaKeyPair::generate(rng),
                 config, /*seed=*/4);
  const GroupId gid = "g";
  auto users = make_users(4);
  admin.create_group(gid, users);
  admin.remove_user(gid, "u3");  // overwrites the index: a replica can lag

  ClientApi client(faulty, enclave.public_key(),
                   enclave.ecall_extract_user_key("u0"),
                   admin.verification_point());
  client.set_retry_policy(RetryPolicy{}.without_delays());

  // Observe the committed post-removal index once, faults off: this sets the
  // client's version floor.
  faulty.set_faults_enabled(false);
  auto key = client.fetch_group_key(gid);
  ASSERT_TRUE(key.has_value());

  // Now every read is served by the lagging replica. The client must reject
  // the old index rather than silently regress to the pre-removal view.
  faulty.set_faults_enabled(true);
  EXPECT_FALSE(client.fetch_group_key(gid).has_value());
  EXPECT_GT(client.stats().stale_reads_rejected, 0u);

  // Healthy replica again: same key as before.
  faulty.set_faults_enabled(false);
  EXPECT_EQ(client.fetch_group_key(gid), key);
}

/// Forwards every call to `inner`, except that the next `n` version checks
/// (dir_version / file_version) throw TransientError, and the next long poll
/// can be made to time out spuriously. FaultInjectingStore never faults the
/// version checks, so this covers what its schedules cannot reach.
class FlakyCheckStore : public CloudStore {
 public:
  explicit FlakyCheckStore(CloudStore& inner) : inner_(inner) {}

  void fail_next_checks(int n) { failing_checks_ = n; }
  void drop_next_wake() { drop_wake_ = true; }

  std::uint64_t put(const std::string& path, Bytes value) override {
    return inner_.put(path, std::move(value));
  }
  std::optional<std::uint64_t> put_cas(const std::string& path, Bytes value,
                                       std::uint64_t expected) override {
    return inner_.put_cas(path, std::move(value), expected);
  }
  std::optional<Bytes> get(const std::string& path) const override {
    return inner_.get(path);
  }
  std::optional<Versioned> get_versioned(const std::string& path) const override {
    return inner_.get_versioned(path);
  }
  std::uint64_t file_version(const std::string& path) const override {
    check();
    return inner_.file_version(path);
  }
  bool erase(const std::string& path) override { return inner_.erase(path); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_.list(prefix);
  }
  std::uint64_t dir_version(const std::string& dir) const override {
    check();
    return inner_.dir_version(dir);
  }
  std::optional<std::uint64_t> long_poll(
      const std::string& dir, std::uint64_t since,
      std::chrono::milliseconds timeout) const override {
    if (drop_wake_.exchange(false)) return std::nullopt;
    return inner_.long_poll(dir, since, timeout);
  }
  ibbe::cloud::CloudStats stats() const override { return inner_.stats(); }
  std::size_t stored_bytes() const override { return inner_.stored_bytes(); }

 private:
  void check() const {
    if (failing_checks_ > 0) {
      --failing_checks_;
      throw TransientError("flaky version check");
    }
  }

  CloudStore& inner_;
  mutable std::atomic<int> failing_checks_{0};
  mutable std::atomic<bool> drop_wake_{false};
};

struct FlakyCheckFixture : ::testing::Test {
  FlakyCheckFixture()
      : platform("flaky-box"),
        enclave(platform, 8),
        rng(23),
        admin(enclave, inner, ibbe::pki::EcdsaKeyPair::generate(rng),
              config(), /*seed=*/6),
        client(flaky, enclave.public_key(),
               enclave.ecall_extract_user_key("u0"),
               admin.verification_point()) {
    client.set_retry_policy(RetryPolicy{}.without_delays());
    admin.create_group(gid, make_users(5));
  }

  static AdminConfig config() {
    AdminConfig c;
    c.partition_size = 3;
    return c;
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  CloudStore inner;
  FlakyCheckStore flaky{inner};
  ibbe::crypto::Drbg rng;
  AdminApi admin;
  ClientApi client;
  const GroupId gid = "g";
};

TEST_F(FlakyCheckFixture, FetchRetriesAFailedDirectoryCheck) {
  flaky.fail_next_checks(1);
  auto result = client.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::ok);
  EXPECT_TRUE(result.key.has_value());
  EXPECT_GT(client.stats().transient_retries, 0u);

  // A check that keeps failing exhausts the budget: unavailable, no throw.
  flaky.fail_next_checks(1000);
  result = client.fetch(gid);
  EXPECT_EQ(result.status, ClientApi::FetchStatus::unavailable);
  EXPECT_FALSE(result.key.has_value());
}

TEST_F(FlakyCheckFixture, WaitReArmsAfterAFailedIndexCheck) {
  auto before = client.fetch_group_key(gid);
  ASSERT_TRUE(before.has_value());
  admin.remove_user(gid, "u4");  // rotates the key
  // The wake is seen, then the index check fails once: the wait must look
  // at the same wake again rather than skip the commit.
  flaky.fail_next_checks(1);
  auto after = client.wait_for_update(gid, std::chrono::seconds(5));
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  EXPECT_EQ(client.fetch_group_key(gid), after);
}

TEST_F(FlakyCheckFixture, WaitReArmsAfterAFailedDirectoryCheck) {
  auto before = client.fetch_group_key(gid);
  ASSERT_TRUE(before.has_value());
  admin.remove_user(gid, "u4");
  // A dropped wake-up sends the wait to its directory check, which fails
  // once; the next round still finds the commit.
  flaky.drop_next_wake();
  flaky.fail_next_checks(1);
  auto after = client.wait_for_update(gid, std::chrono::seconds(5));
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
}

// ------------------------------------------------ crash-point enumeration
//
// For every membership operation we count its cloud mutations M in a crash-
// free dry run, then replay the whole deployment M times, crashing the admin
// immediately before mutation k = 1..M. A fresh admin recovers and the world
// must equal the pre-state or the post-state exactly; re-issuing the
// operation must always land in the post-state.

struct Scenario {
  std::string label;
  std::vector<Identity> initial;                    // create_group members
  std::function<void(AdminApi&, const GroupId&)> prepare;  // optional extra
  std::function<void(AdminApi&, const GroupId&)> op;       // mutation under test
  std::set<Identity> pre;   // membership before op
  std::set<Identity> post;  // membership after op
};

class CrashEnumeration : public ::testing::Test {
 protected:
  // One enclave for every deployment in the suite: mutation counts do not
  // depend on enclave-internal randomness, and sharing it keeps the
  // enumeration fast.
  static void SetUpTestSuite() {
    platform_ = new ibbe::sgx::EnclavePlatform("crash-box");
    enclave_ = new ibbe::enclave::IbbeEnclave(*platform_, 8);
    ibbe::crypto::Drbg rng(42);
    admin_key_ = new ibbe::pki::EcdsaKeyPair(
        ibbe::pki::EcdsaKeyPair::generate(rng));
  }
  static void TearDownTestSuite() {
    delete admin_key_;
    delete enclave_;
    delete platform_;
    admin_key_ = nullptr;
    enclave_ = nullptr;
    platform_ = nullptr;
  }

  static std::unique_ptr<AdminApi> make_admin(CloudStore& store,
                                              std::uint64_t seed) {
    AdminConfig config;
    config.partition_size = 3;
    config.log_operations = true;
    config.retry = RetryPolicy{}.without_delays();
    return std::make_unique<AdminApi>(*enclave_, store, *admin_key_, config,
                                      seed);
  }

  static std::set<Identity> membership(const AdminApi& admin, const GroupId& gid,
                                       const std::vector<Identity>& universe) {
    std::set<Identity> out;
    for (const auto& id : universe) {
      if (admin.is_member(gid, id)) out.insert(id);
    }
    return out;
  }

  /// Full invariant set against the REAL (inner) store through clean
  /// clients: one shared key for every member, failure for everyone else,
  /// anchored audit ok, and not a single unreferenced file on the cloud.
  static void check_world(CloudStore& inner, const AdminApi& admin,
                          const GroupId& gid, const std::set<Identity>& members,
                          const std::vector<Identity>& universe) {
    std::optional<Bytes> shared;
    for (const auto& id : universe) {
      ClientApi client(inner, enclave_->public_key(),
                       enclave_->ecall_extract_user_key(id),
                       admin.verification_point());
      auto key = client.fetch_group_key(gid);
      if (members.count(id)) {
        ASSERT_TRUE(key.has_value()) << id << " cannot decrypt";
        if (!shared) shared = *key;
        EXPECT_EQ(*key, *shared) << id << " derived a different key";
      } else {
        EXPECT_FALSE(key.has_value()) << id << " can still decrypt";
      }
    }
    auto audit = admin.audit_group_log(gid);
    EXPECT_TRUE(audit.ok) << audit.failure;
    // Exact cloud footprint: manifest + oplog + shards + cipher bundle +
    // live overlays + retained deltas + the one live sealed gk. Anything
    // else is an orphan the GC missed.
    EXPECT_EQ(inner.list("groups/" + gid + "/").size(),
              admin.cloud_object_count(gid));
  }

  static void run(const Scenario& sc) {
    const GroupId gid = "g";
    auto universe = make_users(10);
    universe.push_back("joiner");
    const std::uint64_t seed = 1234;

    // Dry run: count the operation's cloud mutations.
    std::uint64_t mutations = 0;
    {
      CloudStore inner;
      FaultInjectingStore faulty(inner, FaultPlan{});
      auto admin = make_admin(faulty, seed);
      admin->create_group(gid, sc.initial);
      if (sc.prepare) sc.prepare(*admin, gid);
      ASSERT_EQ(membership(*admin, gid, universe), sc.pre);
      auto before = faulty.mutation_ops();
      sc.op(*admin, gid);
      mutations = faulty.mutation_ops() - before;
      ASSERT_EQ(membership(*admin, gid, universe), sc.post);
      check_world(inner, *admin, gid, sc.post, universe);
    }
    ASSERT_GT(mutations, 0u) << sc.label;
    SCOPED_TRACE(sc.label + ": " + std::to_string(mutations) +
                 " crash points");

    for (std::uint64_t k = 1; k <= mutations; ++k) {
      SCOPED_TRACE("crash before mutation " + std::to_string(k));
      CloudStore inner;
      FaultInjectingStore faulty(inner, FaultPlan{});
      auto admin = make_admin(faulty, seed);
      admin->create_group(gid, sc.initial);
      if (sc.prepare) sc.prepare(*admin, gid);

      faulty.arm_crash_after(k);
      bool crashed = false;
      try {
        sc.op(*admin, gid);
      } catch (const CrashError&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed);
      admin.reset();  // the process is gone

      // A fresh admin recovers from cloud state alone.
      auto restarted = make_admin(faulty, seed + 999);
      bool exists = restarted->recover(gid);
      if (!exists) {
        // Only a crashed CREATION may leave no group; recovery must have
        // rolled every torn file back.
        ASSERT_TRUE(sc.pre.empty());
        EXPECT_TRUE(inner.list("groups/" + gid + "/").empty());
      } else {
        auto now = membership(*restarted, gid, universe);
        bool at_pre = (now == sc.pre);
        bool at_post = (now == sc.post);
        ASSERT_TRUE(at_pre || at_post)
            << "torn membership state after recovery";
        EXPECT_EQ(restarted->group_size(gid), now.size());
        check_world(inner, *restarted, gid, now, universe);
      }

      // Roll forward: re-issuing the operation must reach the post-state.
      sc.op(*restarted, gid);
      ASSERT_EQ(membership(*restarted, gid, universe), sc.post);
      check_world(inner, *restarted, gid, sc.post, universe);
    }
  }

  static ibbe::sgx::EnclavePlatform* platform_;
  static ibbe::enclave::IbbeEnclave* enclave_;
  static ibbe::pki::EcdsaKeyPair* admin_key_;
};

ibbe::sgx::EnclavePlatform* CrashEnumeration::platform_ = nullptr;
ibbe::enclave::IbbeEnclave* CrashEnumeration::enclave_ = nullptr;
ibbe::pki::EcdsaKeyPair* CrashEnumeration::admin_key_ = nullptr;

std::set<Identity> to_set(const std::vector<Identity>& v) {
  return {v.begin(), v.end()};
}

TEST_F(CrashEnumeration, CreateGroup) {
  // The op itself is the creation: pre-state is "no group".
  auto users = make_users(7);
  Scenario sc;
  sc.label = "create";
  sc.initial = {"bootstrap"};  // placeholder; op recreates from scratch
  sc.pre = {};
  sc.post = to_set(users);
  sc.op = [users](AdminApi& admin, const GroupId& gid) {
    admin.create_group(gid, users);
  };
  // No create_group in the shared path: run a bespoke loop without the
  // fixture's initial creation.
  const GroupId gid = "g";
  const auto universe = make_users(10);
  std::uint64_t mutations = 0;
  {
    CloudStore inner;
    FaultInjectingStore faulty(inner, FaultPlan{});
    auto admin = make_admin(faulty, 1234);
    sc.op(*admin, gid);
    mutations = faulty.mutation_ops();
    check_world(inner, *admin, gid, sc.post, universe);
  }
  ASSERT_GT(mutations, 0u);
  SCOPED_TRACE("create: " + std::to_string(mutations) + " crash points");
  for (std::uint64_t k = 1; k <= mutations; ++k) {
    SCOPED_TRACE("crash before mutation " + std::to_string(k));
    CloudStore inner;
    FaultInjectingStore faulty(inner, FaultPlan{});
    auto admin = make_admin(faulty, 1234);
    faulty.arm_crash_after(k);
    bool crashed = false;
    try {
      sc.op(*admin, gid);
    } catch (const CrashError&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    admin.reset();

    auto restarted = make_admin(faulty, 2233);
    bool exists = restarted->recover(gid);
    if (!exists) {
      EXPECT_TRUE(inner.list("groups/" + gid + "/").empty());
    } else {
      ASSERT_EQ(membership(*restarted, gid, universe), sc.post);
      check_world(inner, *restarted, gid, sc.post, universe);
    }

    if (!exists) {
      sc.op(*restarted, gid);
      ASSERT_EQ(membership(*restarted, gid, universe), sc.post);
      check_world(inner, *restarted, gid, sc.post, universe);
    }
  }
}

TEST_F(CrashEnumeration, AddUserIntoOpenPartition) {
  // 7 members split (3,3,1): only the last partition is open, so placement
  // is deterministic regardless of the admin's RNG.
  auto users = make_users(7);
  Scenario sc;
  sc.label = "add-extend";
  sc.initial = users;
  sc.pre = to_set(users);
  sc.post = sc.pre;
  sc.post.insert("joiner");
  sc.op = [](AdminApi& admin, const GroupId& gid) {
    admin.add_user(gid, "joiner");
  };
  run(sc);
}

TEST_F(CrashEnumeration, AddUserCreatesNewPartition) {
  // 6 members split (3,3): both full, the joiner gets a new partition.
  auto users = make_users(6);
  Scenario sc;
  sc.label = "add-new-partition";
  sc.initial = users;
  sc.pre = to_set(users);
  sc.post = sc.pre;
  sc.post.insert("joiner");
  sc.op = [](AdminApi& admin, const GroupId& gid) {
    admin.add_user(gid, "joiner");
  };
  run(sc);
}

TEST_F(CrashEnumeration, RemoveUserRotatesWithoutRebuild) {
  // 7 members (3,3,1); removing u0 leaves (2,3,1) — 1 sparse partition out
  // of 3, below the rebuild threshold.
  auto users = make_users(7);
  Scenario sc;
  sc.label = "remove";
  sc.initial = users;
  sc.pre = to_set(users);
  sc.post = sc.pre;
  sc.post.erase("u0");
  sc.op = [](AdminApi& admin, const GroupId& gid) {
    admin.remove_user(gid, "u0");
  };
  run(sc);
}

TEST_F(CrashEnumeration, BatchRevocation) {
  // 8 members (3,3,2); revoking u1 and u4 leaves (2,2,2) — no partition
  // under the 2/3 threshold, no rebuild.
  auto users = make_users(8);
  Scenario sc;
  sc.label = "batch-revoke";
  sc.initial = users;
  sc.pre = to_set(users);
  sc.post = sc.pre;
  sc.post.erase("u1");
  sc.post.erase("u4");
  sc.op = [](AdminApi& admin, const GroupId& gid) {
    std::vector<Identity> leavers = {"u1", "u4"};
    admin.remove_users(gid, leavers);
  };
  run(sc);
}

TEST_F(CrashEnumeration, RemoveTriggersRepartition) {
  // 9 members (3,3,3). Preparation removes u0, u1, u3 → (1,2,3), still below
  // the trigger. Removing u4 leaves (1,1,3): 2 of 3 partitions sparse →
  // full rebuild through Algorithm 1, committed by the rebuild's index CAS.
  auto users = make_users(9);
  Scenario sc;
  sc.label = "re-partition";
  sc.initial = users;
  sc.prepare = [](AdminApi& admin, const GroupId& gid) {
    admin.remove_user(gid, "u0");
    admin.remove_user(gid, "u1");
    admin.remove_user(gid, "u3");
  };
  sc.pre = {"u2", "u4", "u5", "u6", "u7", "u8"};
  sc.post = {"u2", "u5", "u6", "u7", "u8"};
  sc.op = [](AdminApi& admin, const GroupId& gid) {
    admin.remove_user(gid, "u4");
  };
  run(sc);
}

// --------------------------------------------- op-log lost-update regression

TEST(OpLogConcurrency, InterleavedAdminsLoseNoEntries) {
  // Admin B is paused at the exact moment it publishes its op-log entry;
  // admin A commits a full add in that window. With the seed's last-writer-
  // wins put, B's rewrite would erase A's entry; the CAS-merge publication
  // must keep both.
  ibbe::sgx::EnclavePlatform platform("interleave-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  ibbe::crypto::Drbg rng(31);
  auto key_a = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto key_b = ibbe::pki::EcdsaKeyPair::generate(rng);

  auto config_for = [&](std::uint32_t nonce, const std::string& name,
                        const ibbe::pki::EcdsaKeyPair& peer) {
    AdminConfig config;
    config.partition_size = 3;
    config.admin_nonce = nonce;
    config.admin_name = name;
    config.log_operations = true;
    config.retry = RetryPolicy{}.without_delays();
    config.peer_verification_keys = {ibbe::ec::p256_to_bytes(peer.public_key())};
    return config;
  };
  AdminApi admin_a(enclave, faulty, key_a, config_for(1, "A", key_b), 8);
  AdminApi admin_b(enclave, faulty, key_b, config_for(2, "B", key_a), 9);

  const GroupId gid = "g";
  admin_a.create_group(gid, make_users(4));
  admin_b.sync_from_cloud(gid);

  const std::string log_path = ibbe::system::oplog_path(gid);
  bool fired = false;
  faulty.set_write_hook([&](const std::string& path) {
    if (fired || path != log_path) return;
    fired = true;
    admin_a.add_user(gid, "from-a");  // full commit inside B's window
  });
  admin_b.add_user(gid, "from-b");
  ASSERT_TRUE(fired);

  // Both entries survived the interleaving.
  auto raw = inner.get(log_path);
  ASSERT_TRUE(raw.has_value());
  auto log = MembershipLog::from_bytes(*raw);
  std::set<std::string> subjects;
  for (const auto& e : log.entries()) subjects.insert(e.subject);
  EXPECT_TRUE(subjects.count("from-a")) << "admin A's entry was lost";
  EXPECT_TRUE(subjects.count("from-b")) << "admin B's entry was lost";
  EXPECT_GE(admin_b.stats().cas_conflicts, 1u);

  // And the merged log still audits cleanly from both sides.
  EXPECT_TRUE(admin_a.audit_group_log(gid).ok);
  EXPECT_TRUE(admin_b.audit_group_log(gid).ok);
  EXPECT_TRUE(admin_b.is_member(gid, "from-a"));
  EXPECT_TRUE(admin_b.is_member(gid, "from-b"));
}

// ------------------------------------------ lost CAS during a full rebuild

TEST(RebuildConcurrency, RebuildThatLosesTheManifestCasResyncsAndRetries) {
  // Admin B's removal triggers a full re-partition; admin A commits a join
  // while B's rebuild has staged its new generation but not yet committed
  // it. B's manifest CAS then loses: B must re-sync and re-run the removal
  // like any other mutation, not throw.
  ibbe::sgx::EnclavePlatform platform("rebuild-race-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 8);
  CloudStore inner;
  FaultInjectingStore faulty(inner, FaultPlan{});
  ibbe::crypto::Drbg rng(37);
  auto key_a = ibbe::pki::EcdsaKeyPair::generate(rng);
  auto key_b = ibbe::pki::EcdsaKeyPair::generate(rng);

  auto config_for = [&](std::uint32_t nonce, const std::string& name,
                        const ibbe::pki::EcdsaKeyPair& peer) {
    AdminConfig config;
    config.partition_size = 3;
    config.admin_nonce = nonce;
    config.admin_name = name;
    config.log_operations = true;
    config.retry = RetryPolicy{}.without_delays();
    config.peer_verification_keys = {ibbe::ec::p256_to_bytes(peer.public_key())};
    return config;
  };
  AdminApi admin_a(enclave, faulty, key_a, config_for(1, "A", key_b), 8);
  AdminApi admin_b(enclave, faulty, key_b, config_for(2, "B", key_a), 9);

  const GroupId gid = "g";
  auto users = make_users(9);  // (3,3,3)
  admin_a.create_group(gid, users);
  admin_b.sync_from_cloud(gid);
  // (1,2,3): one sparse partition out of three, below the trigger.
  for (const char* id : {"u0", "u1", "u3"}) admin_b.remove_user(gid, id);
  const auto rebuilds_before = admin_b.stats().repartitions;

  // The rebuild's sealed gk is written after its shards and bundle and
  // before its manifest CAS: the middle of the rebuild's window.
  const std::string gk_prefix = ibbe::system::group_dir(gid) + "/gk";
  bool fired = false;
  faulty.set_write_hook([&](const std::string& path) {
    if (fired || path.rfind(gk_prefix, 0) != 0) return;
    fired = true;
    admin_a.add_user(gid, "from-a");  // full commit inside B's window
  });
  // (1,1,3): two of three partitions sparse, a full rebuild.
  ASSERT_NO_THROW(admin_b.remove_user(gid, "u4"));
  faulty.set_write_hook(nullptr);
  ASSERT_TRUE(fired);
  EXPECT_GT(admin_b.stats().repartitions, rebuilds_before);
  EXPECT_GE(admin_b.stats().cas_conflicts, 1u);

  // Both mutations landed, and a fresh view of the cloud agrees with B.
  EXPECT_FALSE(admin_b.is_member(gid, "u4"));
  EXPECT_TRUE(admin_b.is_member(gid, "from-a"));
  admin_a.sync_from_cloud(gid);
  EXPECT_EQ(admin_a.group_size(gid), admin_b.group_size(gid));
  EXPECT_EQ(admin_a.partition_count(gid), admin_b.partition_count(gid));
  for (const auto& id : users) {
    EXPECT_EQ(admin_a.is_member(gid, id), admin_b.is_member(gid, id)) << id;
  }
  EXPECT_TRUE(admin_a.is_member(gid, "from-a"));
  EXPECT_TRUE(admin_b.audit_group_log(gid).ok);

  // Members share the committed key; the revoked user does not get it.
  std::optional<Bytes> shared;
  for (const Identity& id :
       std::vector<Identity>{"u2", "u5", "from-a", "u4"}) {
    ClientApi client(inner, enclave.public_key(),
                     enclave.ecall_extract_user_key(id),
                     std::vector<ibbe::ec::P256Point>{
                         admin_a.verification_point(),
                         admin_b.verification_point()});
    auto key = client.fetch_group_key(gid);
    if (id == "u4") {
      EXPECT_FALSE(key.has_value());
      continue;
    }
    ASSERT_TRUE(key.has_value()) << id;
    if (!shared) shared = *key;
    EXPECT_EQ(*key, *shared) << id;
  }
}

// ------------------------------------- a failed mutation leaves no residue

/// The in-memory store, except that overlay puts fail with TransientError
/// while `failing_puts` is set, and manifest reads while `failing_reads` is.
class FlakyOverlayStore : public CloudStore {
 public:
  bool failing_puts = false;
  bool failing_reads = false;

  std::uint64_t put(const std::string& path, Bytes value) override {
    auto name = ibbe::system::parse_object_path("g", path);
    if (failing_puts && name &&
        name->kind == ibbe::system::ObjectName::Kind::cipher_overlay) {
      throw TransientError("overlay put refused");
    }
    return CloudStore::put(path, std::move(value));
  }
  std::optional<Versioned> get_versioned(
      const std::string& path) const override {
    if (failing_reads) throw TransientError("manifest read refused");
    return CloudStore::get_versioned(path);
  }
};

// add_user stages its op and takes the enclave's extended ciphertext into
// the cached state before the overlay put exhausts its retries. Those
// uncommitted changes must not survive the throw, or the next commit's
// shard and cipher would carry a member its delta and op-log never name.
struct FailedMutation : ::testing::Test {
  FailedMutation()
      : platform("residue-box"),
        enclave(platform, 8),
        rng(41),
        admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
              config(), /*seed=*/3),
        warm(cloud, enclave.public_key(), enclave.ecall_extract_user_key("u0"),
             admin.verification_point()) {
    admin.create_group(gid, make_users(6));  // (4, 2): one open partition
    warm.set_retry_policy(RetryPolicy{}.without_delays());
    EXPECT_TRUE(warm.fetch_group_key(gid).has_value());
  }

  static AdminConfig config() {
    AdminConfig c;
    c.partition_size = 4;
    c.log_operations = true;
    c.retry = RetryPolicy{}.without_delays();
    c.retry.max_attempts = 2;
    return c;
  }

  /// The next add_user("late") commits a shard, delta and op-log entry that
  /// agree — "late" joined, nobody else did — and a warm client folds it
  /// without falling back to a snapshot.
  void expect_clean_commit_of_late() {
    admin.add_user(gid, "late");
    EXPECT_TRUE(admin.is_member(gid, "late"));
    EXPECT_FALSE(admin.is_member(gid, "ghost"));

    ibbe::system::MetadataReader reader({admin.verification_point()});
    auto m = reader.manifest(cloud.get(ibbe::system::index_path(gid)), gid,
                             nullptr);
    ASSERT_TRUE(m.ok());
    std::set<Identity> listed;
    for (const auto& ref : m.record.shards) {
      auto shard =
          reader.shard(cloud.get(ibbe::system::shard_path(gid, ref.sid)), ref);
      ASSERT_TRUE(shard.ok());
      for (const auto& [pid, members] : shard.record.partitions) {
        listed.insert(members.begin(), members.end());
      }
    }
    auto expected = to_set(make_users(6));
    expected.insert("late");
    EXPECT_EQ(listed, expected);
    auto delta = ibbe::system::IndexDelta::from_bytes(*cloud.get(
        ibbe::system::delta_path(gid, m.record.freshness.counter)));
    ASSERT_EQ(delta.ops.size(), 1u);
    EXPECT_EQ(delta.ops[0].kind, ibbe::system::DeltaOp::Kind::add_member);
    EXPECT_EQ(delta.ops[0].user, "late");
    const auto& entries = admin.log_of(gid).entries();
    ASSERT_EQ(entries.size(), 2u);  // create_group, add_user late
    EXPECT_EQ(entries.back().op, LogOp::add_user);
    EXPECT_EQ(entries.back().subject, "late");
    EXPECT_TRUE(admin.audit_group_log(gid).ok);

    auto key = warm.fetch_group_key(gid);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(warm.stats().degraded_refetches, 0u);
    EXPECT_EQ(warm.stats().fold_fallbacks, 0u);
    EXPECT_EQ(warm.stats().delta_folds, 1u);
    ClientApi late(cloud, enclave.public_key(),
                   enclave.ecall_extract_user_key("late"),
                   admin.verification_point());
    EXPECT_EQ(late.fetch_group_key(gid), key);
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  FlakyOverlayStore cloud;
  ibbe::crypto::Drbg rng;
  AdminApi admin;
  ClientApi warm;
  const GroupId gid = "g";
};

TEST_F(FailedMutation, IsRolledBackInTheAdminCache) {
  cloud.failing_puts = true;
  EXPECT_THROW(admin.add_user(gid, "ghost"), TransientError);
  cloud.failing_puts = false;
  EXPECT_FALSE(admin.is_member(gid, "ghost"));
  EXPECT_EQ(admin.group_size(gid), 6u);
  expect_clean_commit_of_late();
}

TEST_F(FailedMutation, WhoseResyncFailsIsRolledBackByTheNextMutation) {
  cloud.failing_puts = true;
  cloud.failing_reads = true;  // the re-sync after the throw fails too
  EXPECT_THROW(admin.add_user(gid, "ghost"), TransientError);
  cloud.failing_puts = false;
  cloud.failing_reads = false;
  expect_clean_commit_of_late();
}

// ------------------------------------------------- truncation detection

struct TruncationFixture : ::testing::Test {
  TruncationFixture()
      : platform("truncate-box"),
        enclave(platform, 8),
        rng(17),
        admin(enclave, cloud, ibbe::pki::EcdsaKeyPair::generate(rng),
              AdminConfig{.partition_size = 3,
                          .log_operations = true},
              /*seed=*/6) {
    admin.create_group(gid, make_users(4));
    admin.add_user(gid, "late");
    admin.remove_user(gid, "u1");
  }

  ibbe::sgx::EnclavePlatform platform;
  ibbe::enclave::IbbeEnclave enclave;
  CloudStore cloud;
  ibbe::crypto::Drbg rng;
  AdminApi admin;
  const GroupId gid = "g";
};

TEST_F(TruncationFixture, SuffixTruncationIsInvisibleToChainButCaughtByAnchor) {
  auto raw = cloud.get(ibbe::system::oplog_path(gid));
  ASSERT_TRUE(raw.has_value());
  auto log = MembershipLog::from_bytes(*raw);
  ASSERT_EQ(log.size(), 3u);

  // The cloud rolls the log back to its first two entries.
  ibbe::util::ByteWriter w;
  w.u32(2);
  w.raw(log.entries()[0].to_bytes());
  w.raw(log.entries()[1].to_bytes());
  cloud.put(ibbe::system::oplog_path(gid), w.take());

  // The shorter prefix is still a perfectly valid chain...
  auto truncated = MembershipLog::from_bytes(*cloud.get(ibbe::system::oplog_path(gid)));
  std::vector<ibbe::ec::P256Point> keys = {admin.verification_point()};
  EXPECT_TRUE(truncated.audit(keys).ok);

  // ...but the committed index anchors the removed head: the anchored audit
  // must fail.
  auto audit = admin.audit_group_log(gid);
  EXPECT_FALSE(audit.ok);
  EXPECT_NE(audit.failure.find("truncated"), std::string::npos);
}

TEST_F(TruncationFixture, SplicedEntryStillFailsTheChainAudit) {
  auto raw = cloud.get(ibbe::system::oplog_path(gid));
  ASSERT_TRUE(raw.has_value());
  auto log = MembershipLog::from_bytes(*raw);

  // The cloud rewrites one entry's subject in place.
  ibbe::util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(log.size()));
  for (std::size_t i = 0; i < log.size(); ++i) {
    auto entry = log.entries()[i];
    if (i == 1) entry.subject = "mallory";
    w.raw(entry.to_bytes());
  }
  cloud.put(ibbe::system::oplog_path(gid), w.take());

  auto audit = admin.audit_group_log(gid);
  EXPECT_FALSE(audit.ok);
}

TEST(OpLogAnchor, UncommittedTailAfterTheAnchorIsTolerated) {
  ibbe::crypto::Drbg rng(77);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  MembershipLog log;
  log.append(LogOp::create_group, "members=2", "solo", key);
  log.append(LogOp::add_user, "x", "solo", key);
  log.append(LogOp::add_user, "y", "solo", key);  // index CAS never landed
  std::vector<ibbe::ec::P256Point> keys = {key.public_key()};

  auto anchor = log.entries()[1].hash;
  EXPECT_TRUE(log.audit(keys, &anchor).ok);  // tail beyond the anchor is fine

  // A log that lost the anchored entry itself is truncated.
  ibbe::util::ByteWriter w;
  w.u32(2);
  w.raw(log.entries()[0].to_bytes());
  w.raw(log.entries()[1].to_bytes());
  auto rolled_back = MembershipLog::from_bytes(w.take());
  auto missing = log.entries()[2].hash;
  EXPECT_FALSE(rolled_back.audit(keys, &missing).ok);
}

}  // namespace

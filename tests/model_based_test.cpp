// Model-based randomized integration testing.
//
// A trivially-correct reference model (a set of members plus a key epoch)
// runs in lockstep with a real GroupScheme through random operation
// sequences. After every step the scheme must agree with the model on:
//
//   * membership: exactly the model's members can derive a key;
//   * convergence: all members derive the *same* key;
//   * rotation: the derived key changes across a removal epoch and is stable
//     across adds within an epoch;
//   * revocation: a removed user's old key never matches the current one.
//
// The same harness runs against the full IBBE-SGX stack and both Hybrid
// Encryption baselines — any divergence between scheme semantics shows up as
// a model violation in whichever scheme is wrong.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>

#include "he/he_ibe.h"
#include "he/he_pki.h"
#include "system/ibbe_scheme.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace {

using ibbe::core::Identity;
using ibbe::he::GroupScheme;
using ibbe::util::Bytes;

struct ReferenceModel {
  std::set<Identity> members;
  std::uint64_t epoch = 0;  // bumped on every removal of an actual member

  void add(const Identity& id) { members.insert(id); }
  bool remove(const Identity& id) {
    if (members.erase(id) == 0) return false;
    ++epoch;
    return true;
  }
};

struct SchemeFactory {
  const char* name;
  std::function<std::unique_ptr<GroupScheme>(std::uint64_t seed)> make;
  std::size_t ops;      // sequence length (IBBE decrypts are pricier)
  std::size_t checks;   // membership samples verified per step
};

// Runs an inner scheme with the global thread pool widened for its lifetime
// and restores single-threaded mode on destruction. The model makes no
// allowance for the pool: the parallelized enclave/decrypt paths must behave
// exactly like the serial ones, proving the system layer (including the
// fault-injection and Byzantine stacks) is oblivious to worker threads.
class PooledScheme : public GroupScheme {
 public:
  PooledScheme(std::unique_ptr<GroupScheme> inner, std::size_t threads)
      : inner_(std::move(inner)) {
    ibbe::util::ThreadPool::set_global_threads(threads);
  }
  ~PooledScheme() override { ibbe::util::ThreadPool::set_global_threads(1); }

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+pool";
  }
  void create_group(std::span<const Identity> members) override {
    inner_->create_group(members);
  }
  void add_user(const Identity& id) override { inner_->add_user(id); }
  void remove_user(const Identity& id) override { inner_->remove_user(id); }
  [[nodiscard]] std::optional<Bytes> user_decrypt(const Identity& id) override {
    return inner_->user_decrypt(id);
  }
  [[nodiscard]] std::size_t metadata_size() const override {
    return inner_->metadata_size();
  }
  [[nodiscard]] std::size_t group_size() const override {
    return inner_->group_size();
  }

 private:
  std::unique_ptr<GroupScheme> inner_;
};

std::vector<SchemeFactory> factories() {
  return {
      {"ibbe_sgx",
       [](std::uint64_t seed) {
         return std::make_unique<ibbe::system::IbbeSgxScheme>(5, seed);
       },
       28, 2},
      {"he_pki",
       [](std::uint64_t seed) { return std::make_unique<ibbe::he::HePkiScheme>(seed); },
       80, 4},
      {"he_ibe",
       [](std::uint64_t seed) { return std::make_unique<ibbe::he::HeIbeScheme>(seed); },
       30, 2},
      // The full stack again, but every cloud round trip runs under a seeded
      // random fault schedule — transient errors, ambiguous writes, spurious
      // CAS conflicts, stale replica reads, and process crashes with recovery
      // interleaved mid-sequence (IbbeSgxScheme restarts the admin and
      // re-issues the op on every CrashError). The oracle is IDENTICAL to the
      // fault-free deployments: faults may cost retries and restarts, never
      // correctness.
      {"ibbe_sgx_faulty",
       [](std::uint64_t seed) {
         ibbe::cloud::FaultPlan plan;
         plan.seed = seed * 7919 + 13;  // schedule replays from the test seed
         plan.put_error_rate = 0.03;
         plan.ambiguous_put_rate = 0.02;
         plan.spurious_cas_rate = 0.02;
         plan.get_error_rate = 0.03;
         plan.stale_read_rate = 0.02;
         plan.poll_timeout_rate = 0.05;
         plan.crash_rate = 0.02;
         return std::make_unique<ibbe::system::IbbeSgxScheme>(5, seed, plan);
       },
       24, 2},
      // The BYZANTINE stack: a MaliciousStore replays whole rolled-back
      // generations, withholds op-log tails and equivocates on single files,
      // with the fail-stop tier layered on top. Freshness-verifying,
      // gossiping clients and the enclave-anchored admin are STILL held to
      // the identical fault-free oracle: a bounded-window attack may cost
      // retries, never a wrong or stale key. (Window max 4 keeps attacks
      // inside the clients' retry budget, as docs/fault_model.md derives.)
      {"ibbe_sgx_byzantine",
       [](std::uint64_t seed) {
         ibbe::cloud::FaultPlan plan;
         plan.seed = seed * 7919 + 13;
         plan.put_error_rate = 0.02;
         plan.get_error_rate = 0.02;
         plan.crash_rate = 0.01;
         ibbe::cloud::MaliciousPlan malice;
         malice.seed = seed * 6151 + 29;
         malice.rollback_rate = 0.02;
         malice.withhold_rate = 0.02;
         malice.equivocate_rate = 0.02;
         malice.max_window = 4;
         return std::make_unique<ibbe::system::IbbeSgxScheme>(5, seed, plan,
                                                              malice);
       },
       20, 2},
      // The full stack again, but with the global thread pool at t=4 so the
      // enclave's partition fan-out, decrypt batching and MSM all run on
      // worker threads — held to the SAME oracle as the serial run.
      {"ibbe_sgx_pool4",
       [](std::uint64_t seed) {
         return std::make_unique<PooledScheme>(
             std::make_unique<ibbe::system::IbbeSgxScheme>(5, seed), 4);
       },
       24, 2},
      // The NETWORKED stack: the same deployment behind a real loopback
      // NetServer, the admin and every client on their own AES-GCM session
      // over a seeded FaultInjectingTransport — latency spikes, dropped and
      // duplicated frames, torn frames, and disconnects both before and
      // right AFTER a delivered request (the mid-mutation ambiguity that
      // reconnect-with-resume + server-side dedup must resolve). Corruption
      // is deliberately NOT in this schedule: a flipped bit is an integrity
      // fault and MUST fail the run — that path has its own directed tests.
      // The oracle is identical to the in-process deployments: wire faults
      // may cost retries and resumed sessions, never correctness.
      {"ibbe_sgx_remote",
       [](std::uint64_t seed) {
         ibbe::system::RemotePlan plan;
         plan.faults.seed = seed * 9241 + 17;
         plan.faults.send_drop_rate = 0.01;
         plan.faults.send_dup_rate = 0.02;
         plan.faults.recv_drop_rate = 0.01;
         plan.faults.recv_dup_rate = 0.02;
         plan.faults.torn_frame_rate = 0.01;
         plan.faults.disconnect_send_rate = 0.01;
         plan.faults.disconnect_after_send_rate = 0.01;
         plan.faults.disconnect_recv_rate = 0.01;
         plan.faults.latency_spike_rate = 0.02;
         plan.faults.latency_spike = std::chrono::microseconds{1000};
         return std::make_unique<ibbe::system::IbbeSgxScheme>(5, seed, plan);
       },
       20, 2},
  };
}

class ModelBasedTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, ModelBasedTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),  // factory index
                       ::testing::Values(101u, 202u, 303u)),  // RNG seed
    [](const auto& info) {
      return std::string(factories()[static_cast<std::size_t>(
                             std::get<0>(info.param))]
                             .name) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST_P(ModelBasedTest, SchemeAgreesWithReferenceModel) {
  auto factory = factories()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  std::uint64_t seed = std::get<1>(GetParam());
  // Everything — the operation sequence AND any fault schedule — derives
  // from this one seed, so a failure replays bit-for-bit from the trace line.
  SCOPED_TRACE(std::string(factory.name) + " seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);

  auto scheme = factory.make(seed);
  ReferenceModel model;

  // Bootstrap with a few members.
  std::vector<Identity> bootstrap = {"m0", "m1", "m2", "m3"};
  scheme->create_group(bootstrap);
  for (const auto& id : bootstrap) model.add(id);

  std::uint64_t next_user = 0;
  std::optional<Bytes> epoch_key;          // key observed this epoch
  std::uint64_t epoch_of_key = model.epoch;
  std::map<Identity, Bytes> revoked_keys;  // last key each leaver held

  for (std::size_t step = 0; step < factory.ops; ++step) {
    // --- pick and apply a random operation on both scheme and model.
    bool do_remove = model.members.size() > 1 && rng() % 100 < 40;
    if (do_remove) {
      auto it = model.members.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % model.members.size()));
      Identity leaver = *it;
      if (epoch_key) revoked_keys[leaver] = *epoch_key;
      scheme->remove_user(leaver);
      model.remove(leaver);
    } else if (rng() % 4 == 0 && !revoked_keys.empty()) {
      // Re-admit a previously revoked user.
      auto it = revoked_keys.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % revoked_keys.size()));
      scheme->add_user(it->first);
      model.add(it->first);
      revoked_keys.erase(it);
    } else {
      Identity joiner = ibbe::testutil::numbered("n", next_user++);
      scheme->add_user(joiner);
      model.add(joiner);
    }

    // --- scheme must agree with the model.
    ASSERT_EQ(scheme->group_size(), model.members.size()) << "step " << step;

    // Sampled members all derive one key.
    std::optional<Bytes> current;
    for (std::size_t c = 0; c < factory.checks && !model.members.empty(); ++c) {
      auto it = model.members.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % model.members.size()));
      auto gk = scheme->user_decrypt(*it);
      ASSERT_TRUE(gk.has_value())
          << factory.name << ": member " << *it << " locked out at step " << step;
      if (current) {
        ASSERT_EQ(*gk, *current)
            << factory.name << ": key divergence at step " << step;
      }
      current = *gk;
    }

    if (current) {
      // Key stability within an epoch, rotation across epochs.
      if (epoch_key && epoch_of_key == model.epoch) {
        ASSERT_EQ(*current, *epoch_key)
            << factory.name << ": key rotated without a removal (step " << step << ")";
      }
      if (epoch_key && epoch_of_key != model.epoch) {
        ASSERT_NE(*current, *epoch_key)
            << factory.name << ": key not rotated on removal (step " << step << ")";
      }
      epoch_key = current;
      epoch_of_key = model.epoch;

      // No revoked user's stale key may equal the current key, and revoked
      // users must not be able to re-derive (sample one).
      if (!revoked_keys.empty()) {
        auto it = revoked_keys.begin();
        std::advance(it,
                     static_cast<std::ptrdiff_t>(rng() % revoked_keys.size()));
        ASSERT_NE(it->second, *current)
            << factory.name << ": revoked key still current at step " << step;
        if (model.members.find(it->first) == model.members.end()) {
          auto stale = scheme->user_decrypt(it->first);
          ASSERT_FALSE(stale.has_value())
              << factory.name << ": revoked user " << it->first
              << " re-derived a key at step " << step;
        }
      }
    }
  }
}

}  // namespace

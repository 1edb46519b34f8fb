// Parallel-equivalence suite (the test tentpole of the parallel engine PR),
// in the differential style of strategy_equivalence_test: every parallelized
// path — decrypt_batched (both overloads), Pippenger per-window MSM, the
// enclave's create / remove / batch-remove fan-outs (which back AdminApi
// create, re-partition and batch-revoke), and HeIbeScheme::grant_many — is
// run at t = 1 / 2 / 4 / 7 pool threads and its outputs compared BITWISE
// against the t = 1 serial path. The determinism contract under test: all
// randomness is drawn serially on the calling thread in the serial order,
// workers write only pre-sized slots, so the pool changes WHEN work happens
// but never WHAT is computed.
//
// The suite is wired into the default, portable-field, ASan and TSan trees
// by scripts/ci.sh; the first test doubles as the TSan first-use hammer for
// the lazily-initialized shared state (GLV/GLS contexts, comb/generator
// tables, GT exponentiation contexts, Montgomery backend dispatch).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "ec/msm.h"
#include "enclave/ibbe_enclave.h"
#include "he/he_ibe.h"
#include "ibbe/ibbe.h"
#include "pairing/pairing.h"
#include "sgx/enclave.h"
#include "test_util.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace ibbe {
namespace {

using core::BroadcastCiphertext;
using core::Identity;
using util::ThreadPool;

const std::vector<std::size_t> kThreadSweep = {1, 2, 4, 7};

/// Every test leaves the global pool in single-thread mode so suites that
/// run after this one see the default serial behavior.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(1); }
};

std::vector<Identity> make_ids(std::size_t n, const std::string& prefix) {
  std::vector<Identity> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(prefix + std::to_string(i));
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Declared FIRST so it runs first in this binary: hammer the lazily-built
// shared singletons (GLV/GLS decomposition contexts, the G1 generator comb,
// the G2 4-dim generator comb, the GT exponentiation contexts, the pairing
// tower constants, the Montgomery backend dispatch) from many pool workers
// at once, while they are still uninitialized in this process. Under TSan
// this pins that every one of them is a magic static / properly synchronized
// — the latent hazard the parallel paths would otherwise hit on first use.
TEST(ParallelEquivalenceTest, ConcurrentFirstUseOfLazySingletons) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(7);
  const field::Fr s = testutil::random_nonzero_fr();
  std::vector<util::Bytes> g1(32), g2(32), gt(32), pair(32);
  ThreadPool::global().parallel_for(0, 32, 1, [&](std::size_t i) {
    field::Fr k = s + field::Fr::from_u64(i);
    g1[i] = ec::g1_to_bytes(ec::G1::generator().mul(k));     // GLV + G1 comb
    g2[i] = ec::g2_to_bytes(ec::G2::generator().mul(k));     // GLS + G2 comb4
    gt[i] = pairing::pairing(ec::G1::generator(), ec::G2::generator())
                .exp(k)
                .to_bytes();                                 // GT exp contexts
    pair[i] = pairing::pairing(ec::G1::generator().mul(k),
                               ec::G2::generator())
                  .to_bytes();                               // Miller + Mont
  });
  // Same inputs computed serially must match — the singletons the workers
  // raced to build are shared state, not per-thread state.
  for (std::size_t i = 0; i < 32; ++i) {
    field::Fr k = s + field::Fr::from_u64(i);
    EXPECT_EQ(g1[i], ec::g1_to_bytes(ec::G1::generator().mul(k)));
    EXPECT_EQ(g2[i], ec::g2_to_bytes(ec::G2::generator().mul(k)));
  }
}

// --------------------------------------------------------------- MSM layer

TEST(ParallelEquivalenceTest, PippengerMsmBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  // n > 32 routes msm_u256 to Pippenger (the Straus path has no fan-out);
  // the Fr overloads split first (GLV 2-way / GLS 4-way), multiplying the
  // point count the bucket stage sees.
  for (std::size_t n : {33u, 64u}) {
    std::vector<ec::G2> bases_g2(n);
    std::vector<ec::G1> bases_g1(n);
    std::vector<field::Fr> scalars(n);
    for (std::size_t i = 0; i < n; ++i) {
      bases_g2[i] = testutil::random_g2();
      bases_g1[i] = testutil::random_g1();
      scalars[i] = testutil::random_fr();
    }
    // Edge scalars in the mix: zero, one, r-neighborhood, all-ones.
    auto edges = testutil::edge_scalars();
    for (std::size_t i = 0; i < edges.size() && i < n; ++i) {
      scalars[i] = field::Fr::from_u256_reduce(edges[i]);
    }

    ThreadPool::set_global_threads(1);
    const util::Bytes serial_g2 =
        ec::g2_to_bytes(ec::msm(std::span<const ec::G2>(bases_g2), scalars));
    const util::Bytes serial_g1 =
        ec::g1_to_bytes(ec::msm(std::span<const ec::G1>(bases_g1), scalars));

    for (std::size_t t : kThreadSweep) {
      ThreadPool::set_global_threads(t);
      EXPECT_EQ(
          ec::g2_to_bytes(ec::msm(std::span<const ec::G2>(bases_g2), scalars)),
          serial_g2)
          << "n=" << n << " t=" << t;
      EXPECT_EQ(
          ec::g1_to_bytes(ec::msm(std::span<const ec::G1>(bases_g1), scalars)),
          serial_g1)
          << "n=" << n << " t=" << t;
    }
  }
}

// ------------------------------------------------------------- decrypt layer

struct DecryptFixture {
  core::SystemKeys keys;
  core::UserSecretKey usk;
  std::vector<std::vector<Identity>> receiver_sets;
  std::vector<BroadcastCiphertext> cts;

  /// `shapes[i]` is the receiver-set size of partition i; the subject user
  /// is a member of partition i iff member[i].
  DecryptFixture(std::uint64_t seed, const std::vector<std::size_t>& shapes,
                 const std::vector<bool>& member) {
    crypto::Drbg rng(seed);
    keys = core::setup(16, rng);
    usk = core::extract_user_key(keys.msk, "subject");
    for (std::size_t p = 0; p < shapes.size(); ++p) {
      auto ids = make_ids(shapes[p], "p" + std::to_string(p) + "-u");
      if (member[p] && !ids.empty()) ids[0] = "subject";
      // A shape beyond the PK bound cannot be encrypted; decrypt hits the
      // oversized -> nullopt path from the receiver list alone, so encrypt a
      // truncated set and keep the oversized list for the decrypt refs.
      auto enc_ids = ids;
      if (enc_ids.size() > keys.pk.max_receivers()) {
        enc_ids.resize(keys.pk.max_receivers());
      }
      auto enc = core::encrypt_with_msk(keys.msk, keys.pk, enc_ids, rng);
      receiver_sets.push_back(std::move(ids));
      cts.push_back(enc.ct);
    }
  }

  [[nodiscard]] std::vector<core::PartitionRef> refs() const {
    std::vector<core::PartitionRef> parts;
    for (std::size_t i = 0; i < cts.size(); ++i) {
      parts.push_back({receiver_sets[i], &cts[i]});
    }
    return parts;
  }
};

std::vector<std::optional<util::Bytes>> serialize(
    const std::vector<std::optional<pairing::Gt>>& v) {
  std::vector<std::optional<util::Bytes>> out;
  out.reserve(v.size());
  for (const auto& g : v) {
    out.push_back(g ? std::optional<util::Bytes>(g->to_bytes()) : std::nullopt);
  }
  return out;
}

TEST(ParallelEquivalenceTest, DecryptBatchedBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  // 4 member partitions of 16 plus nullopt shapes: a non-member partition
  // and an oversized one (17 > m = 16).
  const std::vector<std::size_t> shapes = {16, 16, 16, 16, 8, 17};
  const std::vector<bool> member = {true, true, true, true, false, true};
  DecryptFixture fx(0xDEC0DE, shapes, member);
  auto parts = fx.refs();

  ThreadPool::set_global_threads(1);
  const auto serial = serialize(core::decrypt_batched(fx.keys.pk, fx.usk, parts));
  ASSERT_EQ(serial.size(), shapes.size());
  EXPECT_FALSE(serial[4].has_value());  // non-member
  EXPECT_FALSE(serial[5].has_value());  // oversized
  // Semantic anchor: the batch agrees with the one-at-a-time decrypt.
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto one = core::decrypt(fx.keys.pk, fx.usk, fx.receiver_sets[i], fx.cts[i]);
    ASSERT_EQ(one.has_value(), serial[i].has_value()) << i;
    if (one) EXPECT_EQ(one->to_bytes(), *serial[i]) << i;
  }

  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    EXPECT_EQ(serialize(core::decrypt_batched(fx.keys.pk, fx.usk, parts)),
              serial)
        << "t=" << t;
  }
}

TEST(ParallelEquivalenceTest, DecryptBatchedEdgeShapes) {
  GlobalThreadsGuard guard;
  const std::vector<std::size_t> shapes = {4};
  const std::vector<bool> member = {true};
  DecryptFixture fx(0xED6E, shapes, member);
  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    // n = 0 partitions.
    EXPECT_TRUE(
        core::decrypt_batched(fx.keys.pk, fx.usk, std::span<const core::PartitionRef>())
            .empty());
    // n = 1 partition.
    auto parts = fx.refs();
    auto one = core::decrypt_batched(fx.keys.pk, fx.usk, parts);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_TRUE(one[0].has_value());
    // Null ciphertext throws regardless of thread count.
    core::PartitionRef bad{fx.receiver_sets[0], nullptr};
    EXPECT_THROW(core::decrypt_batched(fx.keys.pk, fx.usk,
                                       std::span<const core::PartitionRef>(&bad, 1)),
                 std::invalid_argument);
  }
}

TEST(ParallelEquivalenceTest, PreparedDecryptBatchedBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const std::vector<std::size_t> shapes = {16, 16, 16, 16};
  const std::vector<bool> member = {true, true, true, true};
  DecryptFixture fx(0xBA7C4, shapes, member);

  std::vector<core::PreparedPartition> prepared;
  for (std::size_t i = 0; i < fx.cts.size(); ++i) {
    auto p = core::PreparedPartition::prepare(fx.keys.pk, fx.usk,
                                              fx.receiver_sets[i]);
    ASSERT_TRUE(p.has_value());
    prepared.push_back(std::move(*p));
  }
  std::vector<core::PreparedPartitionRef> refs;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    refs.push_back({&prepared[i], &fx.cts[i]});
  }

  ThreadPool::set_global_threads(1);
  std::vector<util::Bytes> serial;
  for (const auto& g : core::decrypt_batched(refs)) {
    serial.push_back(g.to_bytes());
  }

  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    auto got = core::decrypt_batched(refs);
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to_bytes(), serial[i]) << "t=" << t << " i=" << i;
    }
    // Empty input stays empty.
    EXPECT_TRUE(
        core::decrypt_batched(std::span<const core::PreparedPartitionRef>())
            .empty());
  }
}

// ------------------------------------------------------------- enclave layer

/// Two same-seed enclaves of the same image on one platform produce
/// bitwise-identical partition ciphertexts; only sealed_gk differs (seal
/// nonces come from platform entropy, outside the enclave DRBG). Run one at
/// t = 1 and the other at t, and compare every PartitionCiphertext.
TEST(ParallelEquivalenceTest, EnclaveCreateRemoveBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  sgx::EnclavePlatform platform("equiv-platform");
  constexpr std::uint64_t kSeed = 0x5EED;

  std::vector<std::vector<Identity>> partitions;
  for (std::size_t p = 0; p < 6; ++p) {
    partitions.push_back(make_ids(4, "g" + std::to_string(p) + "-u"));
  }

  // Serial oracle: a fresh seeded enclave driven entirely at t = 1.
  ThreadPool::set_global_threads(1);
  enclave::IbbeEnclave oracle(platform, 8, kSeed);
  auto serial_create = oracle.ecall_create_group(partitions);

  // Two revocations against the creation: a single one (a batch of one host
  // with one user, re-keying two other partitions) and a batch over two
  // hosts. Same-seed creations are bitwise equal, so the specs built from
  // the oracle's ciphertexts serve every enclave below.
  struct Removal {
    std::vector<enclave::IbbeEnclave::BatchRemovalSpec> hosts;
    std::vector<BroadcastCiphertext> others;
  };
  const auto& cts = serial_create.partitions;
  const std::vector<Removal> removals = {
      {{{cts[0].ct, {partitions[0][0]}}}, {cts[1].ct, cts[2].ct}},
      {{{cts[3].ct, {partitions[3][1], partitions[3][2]}},
        {cts[4].ct, {partitions[4][0]}}},
       {cts[5].ct}},
  };
  std::vector<enclave::IbbeEnclave::RemovalResult> serial_removals;
  for (const auto& r : removals) {
    serial_removals.push_back(oracle.ecall_remove_users(r.hosts, r.others));
  }

  // The single revocation's output is also pinned across versions: the
  // SHA-256 of its concatenated ciphertexts, equal to what the former
  // single-user ECALL produced. A change here means revocation output (and
  // so every stored bundle) changed.
  util::Bytes single;
  for (const auto& pc : serial_removals[0].partitions) {
    auto bytes = pc.to_bytes();
    single.insert(single.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(util::to_hex(crypto::Sha256::hash(single)),
            "4c961a1e6ddf9fbc0670ee43a8e2309292ff69d9f997c8b1f659b75ea7ff77b8");

  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    enclave::IbbeEnclave en(platform, 8, kSeed);
    auto create = en.ecall_create_group(partitions);
    ASSERT_EQ(create.partitions.size(), serial_create.partitions.size());
    for (std::size_t i = 0; i < create.partitions.size(); ++i) {
      EXPECT_EQ(create.partitions[i].to_bytes(),
                serial_create.partitions[i].to_bytes())
          << "create t=" << t << " i=" << i;
    }

    for (std::size_t r = 0; r < removals.size(); ++r) {
      auto got = en.ecall_remove_users(removals[r].hosts, removals[r].others);
      const auto& want = serial_removals[r].partitions;
      ASSERT_EQ(got.partitions.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.partitions[i].to_bytes(), want[i].to_bytes())
            << "removal " << r << " t=" << t << " i=" << i;
      }
    }
  }
}

// ------------------------------------------------------------------ HE layer

TEST(ParallelEquivalenceTest, GrantManyBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  auto members = make_ids(24, "he-u");
  constexpr std::uint64_t kSeed = 0x6EA27;

  ThreadPool::set_global_threads(1);
  he::HeIbeScheme serial(kSeed);
  serial.create_group(members);
  serial.remove_user(members[3]);  // re-key path also runs grant_many
  const auto serial_digest = serial.entries_digest();

  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    he::HeIbeScheme scheme(kSeed);
    scheme.create_group(members);
    scheme.remove_user(members[3]);
    EXPECT_EQ(scheme.entries_digest(), serial_digest) << "t=" << t;
    // The granted credentials actually decrypt.
    auto gk = scheme.user_decrypt(members[5]);
    ASSERT_TRUE(gk.has_value());
    EXPECT_FALSE(scheme.user_decrypt(members[3]).has_value());
  }
}

// -------------------------------------------------- failure-path interaction

TEST(ParallelEquivalenceTest, WorkerExceptionLeavesCryptoPathsIntact) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(4);

  const std::vector<std::size_t> shapes = {8, 8};
  const std::vector<bool> member = {true, true};
  DecryptFixture fx(0xFA11, shapes, member);
  auto parts = fx.refs();
  const auto before = serialize(core::decrypt_batched(fx.keys.pk, fx.usk, parts));

  // A worker task throws; the global pool must propagate it and survive.
  EXPECT_THROW(ThreadPool::global().parallel_for(
                   0, 64, 1,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("worker fault");
                   }),
               std::runtime_error);

  // Subsequent parallel crypto on the same (reused) pool is unperturbed.
  EXPECT_EQ(serialize(core::decrypt_batched(fx.keys.pk, fx.usk, parts)),
            before);
}

}  // namespace
}  // namespace ibbe

// Parallel-equivalence suite (the test tentpole of the parallel engine PR),
// in the differential style of strategy_equivalence_test: every parallelized
// path — Pippenger per-window MSM, the enclave's create / batch-remove
// fan-outs (which back AdminApi create, re-partition and revoke), and
// HeIbeScheme::grant_many — is run at t = 1 / 2 / 4 / 7 pool threads and
// its outputs compared BITWISE against the t = 1 serial path. The
// determinism contract under test: all randomness is drawn serially on the
// calling thread in the serial order, workers write only pre-sized slots,
// so the pool changes WHEN work happens but never WHAT is computed.
//
// The suite is wired into the default, portable-field, ASan and TSan trees
// by scripts/ci.sh; the first test doubles as the TSan first-use hammer for
// the lazily-initialized shared state (GLV/GLS contexts, comb/generator
// tables, GT exponentiation contexts, Montgomery backend dispatch), and the
// second does the same for a PublicKey's lazily-built MSM and line tables.
#include <gtest/gtest.h>

#include <atomic>
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
// shared singletons that remain (the G1 generator comb, the G2 4-dim
// generator comb, the per-prime Montgomery contexts and the Montgomery
// backend dispatch, the curve coefficients and generators, and the pairing's
// 1/2 in Fp) from many pool workers at once, while they are still
// uninitialized in this process. The GLV/GLS lattices, the GT exponentiation
// constants and the tower's Frobenius constants are constant-initialized
// literals and need no guard. Under TSan this pins that every lazy one is a
// magic static / properly synchronized — the latent hazard the parallel
// paths would otherwise hit on first use.
TEST(ParallelEquivalenceTest, ConcurrentFirstUseOfLazySingletons) {
  GlobalThreadsGuard guard;
  ThreadPool::set_global_threads(7);
  const field::Fr s = testutil::random_nonzero_fr();
  std::vector<util::Bytes> g1(32), g2(32), gt(32), pair(32);
  ThreadPool::global().parallel_for(0, 32, 1, [&](std::size_t i) {
    field::Fr k = s + field::Fr::from_u64(i);
    g1[i] = ec::g1_to_bytes(ec::G1::generator().mul(k));     // G1 comb
    g2[i] = ec::g2_to_bytes(ec::G2::generator().mul(k));     // G2 comb4
    gt[i] = pairing::pairing(ec::G1::generator(), ec::G2::generator())
                .exp(k)
                .to_bytes();                                 // GT exp
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

// The PublicKey's lazily-built tables (the G2 powers MSM, grown on demand,
// the prepared h / h^gamma line tables, and the fixed-base tables for v and
// w) are filled by lock-free CAS on a shared const key. Hammer their first
// use from many workers on a freshly deserialized, cold key: each worker
// prepares a partition of a different size (so the MSM table grows while
// others read it), decrypts, checks its key, re-keys its ciphertext and
// encrypts afresh. Every result must equal the serial one on a second cold
// copy.
TEST(ParallelEquivalenceTest, ConcurrentFirstUseOfPublicKeyTables) {
  GlobalThreadsGuard guard;
  crypto::Drbg rng(0xC01D);
  auto keys = core::setup(16, rng);
  const auto usk = core::extract_user_key(keys.msk, "subject");
  const std::vector<std::size_t> shapes = {2, 16, 5, 9, 4, 12, 3, 7};
  std::vector<std::vector<Identity>> receivers;
  std::vector<BroadcastCiphertext> cts;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    auto ids = make_ids(shapes[p], "p" + std::to_string(p) + "-u");
    ids[0] = "subject";
    cts.push_back(core::encrypt_with_msk(keys.msk, keys.pk, ids, rng).ct);
    receivers.push_back(std::move(ids));
  }
  const auto pk_bytes = keys.pk.to_bytes();

  std::vector<field::Fr> ks, exponents;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    ks.push_back(core::random_nonzero_fr(rng));
    exponents.push_back(core::partition_exponent(keys.msk, receivers[p]));
  }
  // bk, C1, C2 and C3 of one encrypt result, as bytes.
  auto encoded = [](const core::EncryptResult& r) {
    auto out = r.bk.to_bytes();
    auto ct = r.ct.to_bytes();
    out.insert(out.end(), ct.begin(), ct.end());
    return out;
  };

  ThreadPool::set_global_threads(1);
  const auto serial_pk = core::PublicKey::from_bytes(pk_bytes);
  std::vector<util::Bytes> serial, serial_rekey, serial_encrypt;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    auto bk = core::decrypt(serial_pk, usk, receivers[p], cts[p]);
    ASSERT_TRUE(bk.has_value()) << p;
    serial.push_back(bk->to_bytes());
    serial_rekey.push_back(encoded(core::rekey(serial_pk, cts[p], ks[p])));
    serial_encrypt.push_back(encoded(
        core::encrypt_with_msk(keys.msk, serial_pk, receivers[p], ks[p])));
  }

  ThreadPool::set_global_threads(7);
  const auto shared_pk = core::PublicKey::from_bytes(pk_bytes);
  const std::size_t n = shapes.size();
  std::vector<util::Bytes> prepared(n), one_shot(n), rekeyed(n), encrypted(n),
      exp_encrypted(n);
  std::vector<char> verified(n, 0);
  auto encrypt_with_exponent = [&](std::size_t p) {
    return encoded(
        core::encrypt_with_exponent(shared_pk, exponents[p], ks[p]));
  };
  ThreadPool::global().parallel_for(0, n, 1, [&](std::size_t p) {
    // Odd workers hit the h comb and the fixed-base tables first, even ones
    // the MSM.
    if (p % 2) exp_encrypted[p] = encrypt_with_exponent(p);
    if (p % 2) rekeyed[p] = encoded(core::rekey(shared_pk, cts[p], ks[p]));
    auto part = core::PreparedPartition::prepare(shared_pk, usk, receivers[p]);
    if (part) prepared[p] = core::decrypt(*part, cts[p]).to_bytes();
    auto bk = core::decrypt(shared_pk, usk, receivers[p], cts[p]);
    if (bk) one_shot[p] = bk->to_bytes();
    verified[p] = core::verify_user_key(shared_pk, usk) ? 1 : 0;
    if (p % 2 == 0) rekeyed[p] = encoded(core::rekey(shared_pk, cts[p], ks[p]));
    encrypted[p] = encoded(
        core::encrypt_with_msk(keys.msk, shared_pk, receivers[p], ks[p]));
    if (p % 2 == 0) exp_encrypted[p] = encrypt_with_exponent(p);
  });
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(prepared[p], serial[p]) << p;
    EXPECT_EQ(one_shot[p], serial[p]) << p;
    EXPECT_TRUE(verified[p]) << p;
    EXPECT_EQ(rekeyed[p], serial_rekey[p]) << p;
    EXPECT_EQ(exp_encrypted[p], serial_encrypt[p]) << p;
    EXPECT_EQ(encrypted[p], serial_encrypt[p]) << p;
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

// ------------------------------------------------------------- enclave layer

/// Two same-seed enclaves of the same image on one platform produce
/// bitwise-identical partition ciphertexts and records; only sealed_gk
/// differs (seal nonces come from platform entropy, outside the enclave
/// DRBG). Run one at t = 1 and the other at t, and compare every
/// PartitionCiphertext and record.
TEST(ParallelEquivalenceTest, EnclaveCreateRemoveBitwiseAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  sgx::EnclavePlatform platform("equiv-platform");
  constexpr std::uint64_t kSeed = 0x5EED;
  using Handle = enclave::IbbeEnclave::PartitionHandle;

  std::vector<std::vector<Identity>> partitions;
  for (std::size_t p = 0; p < 6; ++p) {
    partitions.push_back(make_ids(4, "g" + std::to_string(p) + "-u"));
  }
  const std::vector<std::uint64_t> pids = {10, 11, 12, 13, 14, 15};

  // Serial oracle: a fresh seeded enclave driven entirely at t = 1.
  ThreadPool::set_global_threads(1);
  enclave::IbbeEnclave oracle(platform, 8, kSeed);
  auto serial_create = oracle.ecall_create_group(pids, partitions);

  // Two revocations against the creation: a single one (a batch of one host
  // with one user, re-wrapping for two other partitions, one of which lost
  // its record and is re-keyed) and a batch over two hosts. Same-seed
  // creations are bitwise equal, so the specs built from the oracle's
  // ciphertexts serve every enclave below.
  struct Removal {
    std::vector<enclave::IbbeEnclave::BatchRemovalSpec> hosts;
    std::vector<Handle> others;
  };
  const auto handle = [&](std::size_t p) {
    return Handle{pids[p], serial_create.partitions[p].ct,
                  serial_create.records[p]};
  };
  const std::vector<Removal> removals = {
      {{{handle(0), {partitions[0][0]}}},
       {handle(1), {pids[2], serial_create.partitions[2].ct, {}}}},
      {{{handle(3), {partitions[3][1], partitions[3][2]}},
        {handle(4), {partitions[4][0]}}},
       {handle(5)}},
  };
  std::vector<enclave::IbbeEnclave::RemovalResult> serial_removals;
  for (const auto& r : removals) {
    serial_removals.push_back(oracle.ecall_remove_users(r.hosts, r.others));
  }
  const auto join_handle =
      Handle{pids[0], serial_removals[0].partitions[0].ct,
             serial_removals[0].records[0]};
  auto serial_join = oracle.ecall_add_user_to_partition(
      join_handle, "joiner", serial_create.sealed_gk);

  // The single revocation's output is also pinned across versions: the
  // SHA-256 of its concatenated ciphertexts and records. A change here
  // means revocation output (and so every stored bundle) changed.
  util::Bytes single;
  for (std::size_t i = 0; i < serial_removals[0].partitions.size(); ++i) {
    auto bytes = serial_removals[0].partitions[i].to_bytes();
    single.insert(single.end(), bytes.begin(), bytes.end());
    const auto& record = serial_removals[0].records[i];
    single.insert(single.end(), record.begin(), record.end());
  }
  EXPECT_EQ(util::to_hex(crypto::Sha256::hash(single)),
            "e97a73fc5d48bca19969291357355def4924d06cc71010205213155c68f36192");

  for (std::size_t t : kThreadSweep) {
    ThreadPool::set_global_threads(t);
    enclave::IbbeEnclave en(platform, 8, kSeed);
    auto create = en.ecall_create_group(pids, partitions);
    ASSERT_EQ(create.partitions.size(), serial_create.partitions.size());
    for (std::size_t i = 0; i < create.partitions.size(); ++i) {
      EXPECT_EQ(create.partitions[i].to_bytes(),
                serial_create.partitions[i].to_bytes())
          << "create t=" << t << " i=" << i;
    }
    EXPECT_EQ(create.records, serial_create.records) << "create t=" << t;

    for (std::size_t r = 0; r < removals.size(); ++r) {
      auto got = en.ecall_remove_users(removals[r].hosts, removals[r].others);
      const auto& want = serial_removals[r].partitions;
      ASSERT_EQ(got.partitions.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.partitions[i].to_bytes(), want[i].to_bytes())
            << "removal " << r << " t=" << t << " i=" << i;
      }
      EXPECT_EQ(got.records, serial_removals[r].records)
          << "removal " << r << " t=" << t;
    }
    auto join = en.ecall_add_user_to_partition(join_handle, "joiner",
                                               create.sealed_gk);
    EXPECT_EQ(join.cipher.to_bytes(), serial_join.cipher.to_bytes())
        << "join t=" << t;
    EXPECT_EQ(join.record, serial_join.record) << "join t=" << t;
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

  // Two parallel crypto sites probe the pool: a Pippenger MSM (n > 32) and
  // a same-seed enclave's create fan-out.
  std::vector<ec::G1> bases(40);
  std::vector<field::Fr> scalars(40);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    bases[i] = testutil::random_g1();
    scalars[i] = testutil::random_fr();
  }
  sgx::EnclavePlatform platform("fault-platform");
  std::vector<std::vector<Identity>> partitions;
  for (std::size_t p = 0; p < 4; ++p) {
    partitions.push_back(make_ids(4, "f" + std::to_string(p) + "-u"));
  }
  auto probe = [&] {
    util::Bytes out =
        ec::g1_to_bytes(ec::msm(std::span<const ec::G1>(bases), scalars));
    enclave::IbbeEnclave en(platform, 8, 0xFA11);
    const std::vector<std::uint64_t> pids = {1, 2, 3, 4};
    for (const auto& pc : en.ecall_create_group(pids, partitions).partitions) {
      auto bytes = pc.to_bytes();
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return out;
  };
  const auto before = probe();

  // A worker task throws; the global pool must propagate it and survive.
  EXPECT_THROW(ThreadPool::global().parallel_for(
                   0, 64, 1,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("worker fault");
                   }),
               std::runtime_error);

  // Subsequent parallel crypto on the same (reused) pool is unperturbed.
  EXPECT_EQ(probe(), before);
}

}  // namespace
}  // namespace ibbe

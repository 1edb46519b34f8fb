// Scalar-multiplication perf trajectory: a small always-built suite (no
// google-benchmark dependency) that times the operations ISSUE/ROADMAP track
// across PRs — pairing, G1/G2 single muls (naive ladder vs GLV / the 4-dim
// psi split), GT exponentiation (naive ladder vs cyclotomic engine), a 64-term
// G2 MSM, end-to-end decrypt(|S|=16), and a 4-partition batched decrypt —
// and optionally writes them as JSON so CI can diff a BENCH_scalar.json
// between revisions. The schema is documented in docs/benchmarks.md.
//
// The `_t{N}` metrics re-run a parallelized operation with the global thread
// pool at N total threads — the scaling curve for the work-stealing pool.
// On a single-core host the curve is flat (or slightly worse at higher N,
// pure scheduling overhead); see docs/benchmarks.md for interpretation.
//
// Usage: bench_scalar_suite [--json PATH] [--scale smoke|default|full]
#include <cstdio>
#include <string>
#include <vector>

#include "bigint/mont_backend.h"
#include "common.h"
#include "crypto/drbg.h"
#include "ec/curves.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "field/fp12.h"
#include "ibbe/ibbe.h"
#include "pairing/gt_exp.h"
#include "pairing/pairing.h"
#include "system/admin.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using ibbe::crypto::Drbg;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::field::Fr;

/// Median-free mean over `iters` runs after one warm-up call.
template <typename F>
double time_us(F&& f, int iters) {
  f();  // warm-up (also builds lazy tables so they are not billed below)
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) f();
  return sw.micros() / iters;
}

/// Nanoseconds per op for sub-microsecond field operations: a DEPENDENT
/// multiplication chain (x <- x * y), so the number is the serial latency the
/// tower formulas actually wait on, not a throughput figure.
template <typename F>
double chain_ns(F x, const F& y, int iters) {
  ibbe::util::Stopwatch sw;
  for (int i = 0; i < iters; ++i) x *= y;
  double ns = sw.micros() * 1000.0 / iters;
  volatile bool sink = x.is_zero();  // keep the chain alive
  (void)sink;
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  const ibbe::bench::Scale scale = ibbe::bench::parse_scale(argc, argv);
  const int iters = scale == ibbe::bench::Scale::smoke  ? 5
                    : scale == ibbe::bench::Scale::full ? 200
                                                        : 50;

  Drbg rng(2718);
  auto random_fr = [&rng] {
    Fr k = Fr::from_be_bytes_reduce(rng.bytes(32));
    return k.is_zero() ? Fr::one() : k;
  };

  const G1 p1 = G1::generator().mul(random_fr());
  const G2 p2 = G2::generator().mul(random_fr());
  const Fr k = random_fr();
  const auto ku = k.to_u256();

  std::vector<G2> msm_bases;
  std::vector<Fr> msm_scalars;
  for (int i = 0; i < 64; ++i) {
    msm_bases.push_back(G2::generator().mul(random_fr()));
    msm_scalars.push_back(random_fr());
  }

  auto keys = ibbe::core::setup(16, rng);
  std::vector<ibbe::core::Identity> users;
  for (int i = 0; i < 16; ++i) users.push_back("user" + std::to_string(i));
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, users[0]);

  // GT exponentiation operands: a genuine order-r element and a scalar.
  const auto gt_elem =
      ibbe::pairing::pairing(G1::generator().mul(random_fr()), p2);
  const Fr gt_k = random_fr();

  // Four |S|=16 partitions sharing the client user0 (distinct otherwise).
  std::vector<std::vector<ibbe::core::Identity>> part_sets;
  std::vector<ibbe::core::EncryptResult> part_encs;
  for (int p = 0; p < 4; ++p) {
    std::vector<ibbe::core::Identity> set;
    for (int i = 0; i < 16; ++i) {
      set.push_back("part" + std::to_string(p) + "-user" + std::to_string(i));
    }
    set[0] = users[0];
    part_encs.push_back(ibbe::core::encrypt_with_msk(keys.msk, keys.pk, set, rng));
    part_sets.push_back(std::move(set));
  }
  std::vector<ibbe::core::PartitionRef> parts;
  for (std::size_t p = 0; p < 4; ++p) {
    parts.push_back({part_sets[p], &part_encs[p].ct});
  }

  std::printf("montgomery backend: %s\n", ibbe::bigint::backend::name());
  // Baseline metrics are serial regardless of the host's core count; the
  // `_t{N}` sweeps below widen the pool explicitly.
  ibbe::util::ThreadPool::set_global_threads(1);

  // Base-field / tower operands for the ns-scale metrics.
  using ibbe::field::Fp;
  const Fp fp_x = Fp::from_be_bytes_reduce(rng.bytes(32));
  const Fp fp_y = Fp::from_be_bytes_reduce(rng.bytes(32));
  const ibbe::field::Fp2 fp2_x(fp_x, fp_y);
  const ibbe::field::Fp2 fp2_y(fp_y, fp_x + fp_y);
  const ibbe::field::Fp12 fp12_x = ibbe::pairing::miller_loop(p1, p2);
  const ibbe::field::Fp12 fp12_y = fp12_x.square();
  const int fp_iters = iters * 80000;    // ~25-45 ns each
  const int fp2_iters = iters * 20000;   // ~150-250 ns each
  const int fp12_iters = iters * 800;    // ~2-4 us each

  // The cached-decrypt path: everything receiver-set-dependent prepared once.
  const auto prepared_part =
      ibbe::core::PreparedPartition::prepare(keys.pk, usk, users);

  std::vector<ibbe::bench::Metric> metrics;
  metrics.push_back({"fp_mul_ns", chain_ns(fp_x, fp_y, fp_iters)});
  metrics.push_back({"fp2_mul_ns", chain_ns(fp2_x, fp2_y, fp2_iters)});
  metrics.push_back({"fp12_mul_ns", chain_ns(fp12_x, fp12_y, fp12_iters)});
  metrics.push_back({"pairing_us", time_us(
      [] {
        volatile bool sink =
            ibbe::pairing::pairing(G1::generator(), G2::generator()).is_one();
        (void)sink;
      },
      iters)});
  metrics.push_back({"g1_mul_naive_us",
                     time_us([&] { (void)p1.scalar_mul(ku); }, iters)});
  metrics.push_back({"g1_mul_glv_us", time_us([&] { (void)p1.mul(k); }, iters)});
  metrics.push_back({"g2_mul_naive_us",
                     time_us([&] { (void)p2.scalar_mul(ku); }, iters)});
  metrics.push_back({"g2_mul_4dim_us", time_us([&] { (void)p2.mul(k); }, iters)});
  metrics.push_back({"gt_pow_naive_us", time_us(
      [&] { (void)gt_elem.value().pow_cyclotomic(gt_k.to_u256()); }, iters)});
  metrics.push_back({"gt_pow_us", time_us(
      [&] { (void)gt_elem.exp(gt_k); }, iters)});
  metrics.push_back({"msm_g2_64_us", time_us(
      [&] {
        (void)ibbe::ec::msm(std::span<const G2>(msm_bases),
                            std::span<const Fr>(msm_scalars));
      },
      iters)});
  metrics.push_back({"decrypt_16_us", time_us(
      [&] { (void)ibbe::core::decrypt(keys.pk, usk, users, enc.ct); },
      iters)});
  metrics.push_back({"decrypt_16_prepared_us", time_us(
      [&] { (void)ibbe::core::decrypt(*prepared_part, enc.ct); }, iters)});
  metrics.push_back({"decrypt_batched_4x16_us", time_us(
      [&] { (void)ibbe::core::decrypt_batched(keys.pk, usk, parts); },
      iters)});

  // ---- thread-pool scaling sweeps ----------------------------------------
  // Same operations, global pool widened to N threads. Results stay bitwise
  // identical at every N (tests/parallel_equivalence_test.cpp); only the
  // wall time may move.
  static const char* kBatchedNames[] = {
      "decrypt_batched_4x16_t1_us", "decrypt_batched_4x16_t2_us",
      "decrypt_batched_4x16_t4_us", "decrypt_batched_4x16_t8_us"};
  const std::size_t batched_threads[] = {1, 2, 4, 8};
  for (std::size_t s = 0; s < 4; ++s) {
    ibbe::util::ThreadPool::set_global_threads(batched_threads[s]);
    metrics.push_back({kBatchedNames[s], time_us(
        [&] { (void)ibbe::core::decrypt_batched(keys.pk, usk, parts); },
        iters)});
  }
  static const char* kMsmNames[] = {"msm_g2_64_t1_us", "msm_g2_64_t4_us"};
  const std::size_t msm_threads[] = {1, 4};
  for (std::size_t s = 0; s < 2; ++s) {
    ibbe::util::ThreadPool::set_global_threads(msm_threads[s]);
    metrics.push_back({kMsmNames[s], time_us(
        [&] {
          (void)ibbe::ec::msm(std::span<const G2>(msm_bases),
                              std::span<const Fr>(msm_scalars));
        },
        iters)});
  }
  // End-to-end admin group creation: 256 members in |p|=16 partitions, so
  // the enclave's per-partition encrypt fan-out carries 16-way work. The
  // CloudStore writes and the commit protocol stay on the calling thread.
  static const char* kAdminNames[] = {"admin_create_256_t1_us",
                                      "admin_create_256_t4_us"};
  const std::size_t admin_threads[] = {1, 4};
  const int admin_iters = iters >= 10 ? iters / 10 : 1;
  for (std::size_t s = 0; s < 2; ++s) {
    ibbe::util::ThreadPool::set_global_threads(admin_threads[s]);
    ibbe::sgx::EnclavePlatform platform("bench-scalar");
    ibbe::enclave::IbbeEnclave enclave(platform, 16);
    ibbe::cloud::CloudStore cloud;
    ibbe::crypto::Drbg admin_rng(31 + s);
    ibbe::system::AdminConfig config;
    config.partition_size = 16;
    ibbe::system::AdminApi admin(enclave, cloud,
                                 ibbe::pki::EcdsaKeyPair::generate(admin_rng),
                                 config, /*seed=*/17);
    std::vector<ibbe::core::Identity> group;
    for (int i = 0; i < 256; ++i) group.push_back("m" + std::to_string(i));
    int next_gid = 0;
    ibbe::util::Stopwatch sw;
    for (int i = 0; i < admin_iters; ++i) {
      admin.create_group("g" + std::to_string(next_gid++), group);
    }
    metrics.push_back({kAdminNames[s], sw.micros() / admin_iters});
  }
  ibbe::util::ThreadPool::set_global_threads(1);

  const bool ok = ibbe::bench::report_metrics(
      argc, argv,
      "scalar suite (" + std::string(ibbe::bench::scale_name(scale)) + ")",
      metrics);
  return ok ? 0 : 1;
}

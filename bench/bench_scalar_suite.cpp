// Crypto perf trajectory: the one always-built suite (no third-party
// dependency) that times the primitives the scheme is built from — field
// and tower multiplication, Fr inversion, pairing and 2-pair multi-pairing,
// G1/G2 muls (naive ladder vs GLV / the 4-dim psi split, and the G1, G2 and
// P-256 generator combs), G2 decoding with and without the subgroup check, GT
// exponentiation (naive ladder vs cyclotomic engine, and the final
// exponentiation's u-power, and the fixed-base comb for v with its build), 64-term G1/G2 MSMs, hash-to-G1, SHA-256, AES-GCM, ECIES, IBBE
// encrypt/decrypt at |S| = 16 and 256, the per-partition re-key, the
// 1000-entry cipher-bundle encode, and the enclave's revocation over 1000
// partitions and its join — and
// optionally writes them as JSON so CI can diff a BENCH_scalar.json between
// revisions. The schema is documented in docs/benchmarks.md.
//
// Every `_us` / `_ms` row is the median per-call time over at least 15
// calls at every scale, so one call slowed by another tenant's load does not
// move it. The `_t{N}` metrics re-run a parallelized operation with the
// global thread pool at N total threads — the scaling curve for the pool's
// shared chunk cursor. On a single-core host the curve is flat (or slightly
// worse at higher N, pure scheduling overhead); see docs/benchmarks.md for
// interpretation.
//
// Usage: bench_scalar_suite [--json PATH] [--scale smoke|default|full]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bigint/mont_backend.h"
#include "common.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "ec/curves.h"
#include "ec/endo.h"
#include "ec/glv.h"
#include "ec/msm.h"
#include "field/fp12.h"
#include "ibbe/ibbe.h"
#include "pairing/gt_exp.h"
#include "pairing/pairing.h"
#include "pki/ecies.h"
#include "system/admin.h"
#include "system/metadata.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using ibbe::crypto::Drbg;
using ibbe::ec::G1;
using ibbe::ec::G2;
using ibbe::field::Fr;

/// Median per-call time over `calls` runs (at least 15) after one warm-up
/// call (which also builds lazy tables, so they are not billed): a few calls
/// slowed by another tenant's load do not move it, as they would a mean.
template <typename F>
double median_us(F&& f, int calls) {
  f();
  ibbe::util::Summary us;
  for (int i = 0; i < std::max(15, calls); ++i) {
    ibbe::util::Stopwatch sw;
    f();
    us.add(sw.micros());
  }
  return us.percentile(0.5);
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
  const int fast_iters = iters * 20;                   // the <100 us rows
  const int slow_iters = iters >= 10 ? iters / 10 : 1;  // the >20 ms rows
  const int build_iters = 15;  // the table-build and bundle-encode rows

  Drbg rng(2718);
  auto random_fr = [&rng] {
    Fr k = Fr::from_be_bytes_reduce(rng.bytes(32));
    return k.is_zero() ? Fr::one() : k;
  };

  const G1 p1 = G1::generator().mul(random_fr());
  const G2 p2 = G2::generator().mul(random_fr());
  const Fr k = random_fr();
  const auto ku = k.to_u256();
  // The ECDSA nonce shape: k * G on P-256 (k reused, so no extra draw).
  const auto p256_k = ibbe::field::P256Fr::from_u256_reduce(ku);

  std::vector<G2> msm_bases;
  std::vector<G1> msm_bases_g1;
  std::vector<Fr> msm_scalars;
  for (int i = 0; i < 64; ++i) {
    msm_bases.push_back(G2::generator().mul(random_fr()));
    msm_bases_g1.push_back(G1::generator().mul(random_fr()));
    msm_scalars.push_back(random_fr());
  }
  const auto p2_bytes = ibbe::ec::g2_to_bytes(p2);
  const std::vector<std::pair<G1, G2>> product_pairs = {{p1, p2},
                                                         {p1.dbl(), p2}};

  auto keys = ibbe::core::setup(16, rng);
  std::vector<ibbe::core::Identity> users;
  for (int i = 0; i < 16; ++i) users.push_back("user" + std::to_string(i));
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, users[0]);

  // GT exponentiation operands: a genuine order-r element and a scalar.
  const auto gt_elem =
      ibbe::pairing::pairing(G1::generator().mul(random_fr()), p2);
  const Fr gt_k = random_fr();
  const ibbe::ec::Comb<ibbe::pairing::GtOps> gt_comb(gt_elem.value());

  // |S| = 256: the size where decrypt's O(|S|^2) expansion shows.
  auto keys_256 = ibbe::core::setup(256, rng);
  std::vector<ibbe::core::Identity> users_256;
  for (int i = 0; i < 256; ++i) users_256.push_back("u" + std::to_string(i));
  auto enc_256 =
      ibbe::core::encrypt_with_msk(keys_256.msk, keys_256.pk, users_256, rng);
  auto usk_256 = ibbe::core::extract_user_key(keys_256.msk, users_256[0]);

  // Symmetric and PKI operands: 1 KiB payloads, a 32-byte group key.
  const ibbe::util::Bytes kib(1024, 0xab);
  const ibbe::crypto::Aes256Gcm gcm(ibbe::util::Bytes(32, 1));
  const ibbe::util::Bytes nonce(12, 2);
  const auto ecies_key = ibbe::pki::EciesKeyPair::generate(rng);
  const ibbe::util::Bytes gk(32, 7);
  std::uint64_t hash_ctr = 0;

  // A 1000-entry cipher bundle (the shape of a revocation at 10^6 members,
  // |p| = 1000) of genuine re-key outputs: Jacobian points with Z != 1.
  ibbe::system::CipherBundle bundle_1k;
  for (std::uint64_t pid = 0; pid < 1000; ++pid) {
    ibbe::enclave::PartitionCiphertext pc;
    pc.ct = ibbe::core::rekey(keys.pk, enc.ct, rng).ct;
    pc.wrapped_gk = rng.bytes(48);
    pc.nonce = rng.bytes(12);
    bundle_1k.entries.emplace_back(pid, std::move(pc));
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
  metrics.push_back({"fr_inverse_us", median_us(
      [&] { (void)k.inverse(); }, fast_iters)});
  metrics.push_back({"pairing_us", median_us(
      [] {
        volatile bool sink =
            ibbe::pairing::pairing(G1::generator(), G2::generator()).is_one();
        (void)sink;
      },
      iters)});
  metrics.push_back({"pairing_product2_us", median_us(
      [&] { (void)ibbe::pairing::pairing_product(product_pairs); }, iters)});
  metrics.push_back({"g1_mul_naive_us",
                     median_us([&] { (void)p1.scalar_mul(ku); }, iters)});
  metrics.push_back({"g1_mul_glv_us", median_us([&] { (void)p1.mul(k); }, iters)});
  metrics.push_back({"g2_mul_naive_us",
                     median_us([&] { (void)p2.scalar_mul(ku); }, iters)});
  metrics.push_back({"g2_mul_4dim_us", median_us([&] { (void)p2.mul(k); }, iters)});
  metrics.push_back({"g2_decode_checked_us", median_us(
      [&] { (void)ibbe::ec::g2_from_bytes(p2_bytes); }, iters)});
  metrics.push_back({"g2_decode_unchecked_us", median_us(
      [&] { (void)ibbe::ec::g2_from_bytes(p2_bytes, /*subgroup_check=*/false); },
      iters)});
  metrics.push_back({"g1_mul_gen_us", median_us(
      [&] { (void)G1::generator().mul(k); }, fast_iters)});
  metrics.push_back({"g2_mul_gen_us", median_us(
      [&] { (void)G2::generator().mul(k); }, fast_iters)});
  metrics.push_back({"p256_mul_gen_us", median_us(
      [&] { (void)ibbe::ec::P256Point::generator().mul(p256_k); }, fast_iters)});
  metrics.push_back({"gt_pow_naive_us", median_us(
      [&] { (void)gt_elem.value().pow_cyclotomic(gt_k.to_u256()); }, iters)});
  metrics.push_back({"gt_pow_us", median_us(
      [&] { (void)gt_elem.exp(gt_k); }, iters)});
  metrics.push_back({"gt_pow_fixed_us", median_us(
      [&] { (void)gt_comb.pow(gt_k.to_u256()); }, iters)});
  metrics.push_back({"gt_fixed_table_build_ms", median_us(
      [&] { ibbe::ec::Comb<ibbe::pairing::GtOps> comb(gt_elem.value()); },
      build_iters) / 1000.0});
  metrics.push_back({"h_comb_build_ms", median_us(
      [&] { ibbe::ec::Comb<ibbe::ec::G2Ops> comb(keys.pk.h()); },
      build_iters) / 1000.0});
  metrics.push_back({"gt_pow_u_us", median_us(
      [&] { (void)ibbe::pairing::gt_pow_u(gt_elem.value()); }, iters)});
  metrics.push_back({"msm_g2_64_us", median_us(
      [&] {
        (void)ibbe::ec::msm(std::span<const G2>(msm_bases),
                            std::span<const Fr>(msm_scalars));
      },
      iters)});
  metrics.push_back({"msm_g1_64_us", median_us(
      [&] {
        (void)ibbe::ec::msm(std::span<const G1>(msm_bases_g1),
                            std::span<const Fr>(msm_scalars));
      },
      iters)});
  metrics.push_back({"hash_to_g1_us", median_us(
      [&] { (void)ibbe::ec::hash_to_g1("user" + std::to_string(hash_ctr++)); },
      fast_iters)});
  metrics.push_back({"sha256_1k_us", median_us(
      [&] { (void)ibbe::crypto::Sha256::hash(kib); }, fast_iters)});
  metrics.push_back({"gcm_seal_1k_us", median_us(
      [&] { (void)gcm.seal(nonce, kib); }, fast_iters)});
  metrics.push_back({"ecies_encrypt_us", median_us(
      [&] { (void)ibbe::pki::ecies_encrypt(ecies_key.public_key(), gk, rng); },
      iters)});
  metrics.push_back({"decrypt_16_us", median_us(
      [&] { (void)ibbe::core::decrypt(keys.pk, usk, users, enc.ct); },
      iters)});
  metrics.push_back({"decrypt_16_prepared_us", median_us(
      [&] { (void)ibbe::core::decrypt(*prepared_part, enc.ct); }, iters)});
  metrics.push_back({"encrypt_msk_256_us", median_us(
      [&] {
        (void)ibbe::core::encrypt_with_msk(keys_256.msk, keys_256.pk,
                                           users_256, rng);
      },
      iters)});
  metrics.push_back({"rekey_us", median_us(
      [&] { (void)ibbe::core::rekey(keys.pk, enc.ct, k); }, iters)});
  metrics.push_back({"bundle_encode_1k_ms", median_us(
      [&] { (void)bundle_1k.to_bytes(); }, build_iters) / 1000.0});
  metrics.push_back({"decrypt_256_us", median_us(
      [&] {
        (void)ibbe::core::decrypt(keys_256.pk, usk_256, users_256, enc_256.ct);
      },
      slow_iters)});

  // ---- thread-pool scaling sweeps ----------------------------------------
  // Same operations, global pool widened to N threads. Results stay bitwise
  // identical at every N (tests/parallel_equivalence_test.cpp); only the
  // wall time may move.
  static const char* kMsmNames[] = {"msm_g2_64_t1_us", "msm_g2_64_t4_us"};
  const std::size_t msm_threads[] = {1, 4};
  for (std::size_t s = 0; s < 2; ++s) {
    ibbe::util::ThreadPool::set_global_threads(msm_threads[s]);
    metrics.push_back({kMsmNames[s], median_us(
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
    for (int i = 0; i < 256; ++i) group.push_back(ibbe::bench::numbered("m", i));
    int next_gid = 0;
    metrics.push_back({kAdminNames[s], median_us(
        [&] { admin.create_group(ibbe::bench::numbered("g", next_gid++), group); },
        slow_iters)});
  }
  // The enclave's revocation over 1000 partitions (the shape of 10^6
  // members at |p| = 1000; partition size does not enter the re-wrap or the
  // host's re-key, so these hold 4 members each): one host re-keyed, 999
  // re-wrapped, at the default thread count. The cold row is a same-seed
  // second enclave that never saw the group, handed the first's records.
  // join_us is one join with the partition's record.
  ibbe::util::ThreadPool::set_global_threads(0);
  {
    ibbe::sgx::EnclavePlatform platform("bench-revoke");
    ibbe::enclave::IbbeEnclave warm(platform, 16, /*rng_seed=*/5);
    ibbe::enclave::IbbeEnclave cold(platform, 16, /*rng_seed=*/5);
    std::vector<std::uint64_t> pids(1000);
    std::vector<std::vector<ibbe::core::Identity>> sets(pids.size());
    for (std::size_t p = 0; p < pids.size(); ++p) {
      pids[p] = p + 1;
      for (int u = 0; u < 4; ++u) {
        sets[p].push_back(ibbe::bench::numbered("r", 4 * p + u));
      }
    }
    const auto group = warm.ecall_create_group(pids, sets);
    using Handle = ibbe::enclave::IbbeEnclave::PartitionHandle;
    const std::vector<ibbe::enclave::IbbeEnclave::BatchRemovalSpec> hosts = {
        {{pids[0], group.partitions[0].ct, group.records[0]}, {sets[0][0]}}};
    std::vector<Handle> others;
    for (std::size_t p = 1; p < pids.size(); ++p) {
      others.push_back({pids[p], group.partitions[p].ct, group.records[p]});
    }
    metrics.push_back({"remove_users_1k_ms", median_us(
        [&] { (void)warm.ecall_remove_users(hosts, others); },
        build_iters) / 1000.0});
    metrics.push_back({"remove_users_1k_cold_ms", median_us(
        [&] { (void)cold.ecall_remove_users(hosts, others); },
        build_iters) / 1000.0});
    metrics.push_back({"join_us", median_us(
        [&] {
          (void)warm.ecall_add_user_to_partition(others[0], "joiner",
                                                 group.sealed_gk);
        },
        iters)});
  }
  ibbe::util::ThreadPool::set_global_threads(1);

  const bool ok = ibbe::bench::report_metrics(
      argc, argv,
      "scalar suite (" + std::string(ibbe::bench::scale_name(scale)) + ")",
      metrics);
  return ok ? 0 : 1;
}

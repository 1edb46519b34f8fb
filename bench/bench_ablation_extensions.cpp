// Ablations for the design choices and future-work extensions DESIGN.md
// calls out:
//
//   A. C3 caching            — O(1) add/remove vs recomputing from PK
//   B. batch revocation      — one gk rotation per batch vs one per user
//   C. adaptive partitioning — fixed vs advisor-driven size under churn
//   D. wNAF scalar mult      — windowed-NAF vs double-and-add
#include "common.h"
#include "crypto/drbg.h"
#include "ibbe/ibbe.h"
#include "system/ibbe_scheme.h"
#include "trace/replay.h"
#include "util/stopwatch.h"

using namespace ibbe;

namespace {

std::vector<core::Identity> make_users(std::size_t n) {
  std::vector<core::Identity> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) users.push_back("user" + std::to_string(i));
  return users;
}

}  // namespace

int main(int argc, char** argv) {
  auto scale = bench::parse_scale(argc, argv);
  std::printf("# Ablations: extension design choices [scale=%s]\n",
              bench::scale_name(scale));

  std::size_t n = scale == bench::Scale::smoke ? 64 : 512;
  std::size_t batch_group = scale == bench::Scale::smoke ? 60 : 600;
  std::size_t batch_k = scale == bench::Scale::smoke ? 6 : 40;
  std::size_t churn_ops = scale == bench::Scale::smoke ? 80 : 600;

  crypto::Drbg rng(77);

  // ---------------------------------------------------- A: C3 caching
  {
    auto keys = core::setup(n + 1, rng);  // +1: head-room for the joiner
    auto users = make_users(n);
    auto enc = core::encrypt_with_msk(keys.msk, keys.pk, users, rng);

    util::Stopwatch watch;
    core::add_user_with_msk(keys.msk, enc.ct, "joiner");
    double cached = watch.seconds();

    // Without the cached C3 the admin would recompute it from the PK powers
    // (the paper's Formula 4/5 quadratic path) on every membership change.
    auto extended = users;
    extended.push_back("joiner");
    watch.reset();
    (void)core::compute_c3_public(keys.pk, extended);
    double recomputed = watch.seconds();

    bench::Table t("Ablation A — C3 cache (add-user to a " + std::to_string(n) +
                       "-user partition)",
                   {"variant", "latency", "speedup"});
    t.row({"cached C3 (paper's O(1))", bench::fmt_seconds(cached), "1x"});
    t.row({"recompute C3 from PK (no cache)", bench::fmt_seconds(recomputed),
           bench::fmt_double(recomputed / cached, 1) + "x slower"});
    t.print();
  }

  // ------------------------------------------------ B: batch revocation
  {
    bench::Table t("Ablation B — batch revocation (" + std::to_string(batch_k) +
                       " users out of " + std::to_string(batch_group) + ")",
                   {"variant", "latency", "enclave calls", "gk rotations"});
    auto leavers = make_users(batch_k);  // user0..user{k-1}

    {
      system::IbbeSgxScheme scheme(100, 1);
      scheme.create_group(make_users(batch_group));
      auto ecalls0 = scheme.enclave().ecall_count();
      util::Stopwatch watch;
      for (const auto& id : leavers) scheme.admin().remove_user("g", id);
      t.row({"sequential remove_user", bench::fmt_seconds(watch.seconds()),
             std::to_string(scheme.enclave().ecall_count() - ecalls0),
             std::to_string(batch_k)});
    }
    {
      system::IbbeSgxScheme scheme(100, 1);
      scheme.create_group(make_users(batch_group));
      auto ecalls0 = scheme.enclave().ecall_count();
      util::Stopwatch watch;
      scheme.admin().remove_users("g", leavers);
      t.row({"batched remove_users", bench::fmt_seconds(watch.seconds()),
             std::to_string(scheme.enclave().ecall_count() - ecalls0), "1"});
    }
    t.print();
  }

  // -------------------------------------- C: adaptive partition sizing
  {
    // The advisor sizes partitions from the admin's re-keys against the
    // clients' decrypts. Clients do not talk to the admin on the read path,
    // so the replay reports the decrypts each op forces under the scheme: a
    // join wraps the existing gk, so only the joiner decrypts; a revocation
    // rotates gk, so every remaining member re-derives it. With D ~ R*N the
    // advisor's optimum is sqrt(c_rekey / c_decrypt) ~ 0.1 members, so it
    // settles on min_partition_size: under this model the forced reads
    // outweigh the re-wraps.
    bench::Table t("Ablation C — fixed vs adaptive partition size (removal-heavy "
                   "churn; decrypts fed: 1 per join, 1 per remaining member per "
                   "revocation)",
                   {"variant", "admin replay", "final |p| target", "repartitions",
                    "decrypts fed"});
    auto trace = trace::revocation_trace(churn_ops, 0.7, 5, churn_ops);

    auto run = [&](bool adaptive) {
      sgx::EnclavePlatform platform("ablation");
      enclave::IbbeEnclave enclave(platform, 512);
      cloud::CloudStore cloud;
      crypto::Drbg key_rng(9);
      system::AdminConfig config;
      config.partition_size = 32;
      config.adaptive_partitioning = adaptive;
      config.min_partition_size = 8;
      system::AdminApi admin(enclave, cloud, pki::EcdsaKeyPair::generate(key_rng),
                             config, 10);
      admin.create_group("g", trace.initial_members);
      std::uint64_t decrypts = 0;
      util::Stopwatch watch;
      for (const auto& op : trace.ops) {
        std::size_t forced = 1;
        if (op.kind == trace::OpKind::add) {
          admin.add_user("g", op.user);
        } else {
          admin.remove_user("g", op.user);
          forced = admin.group_size("g");
        }
        for (std::size_t i = 0; i < forced; ++i) admin.advisor().record_decrypt();
        decrypts += forced;
      }
      t.row({adaptive ? "adaptive (advisor-driven)" : "fixed |p|=32",
             bench::fmt_seconds(watch.seconds()),
             std::to_string(admin.partition_size_target("g")),
             std::to_string(admin.stats().repartitions),
             std::to_string(decrypts)});
    };
    run(false);
    run(true);
    t.print();
  }

  // ------------------------------------------------------- D: wNAF
  {
    bench::Table t("Ablation D — scalar multiplication (G2, 200 multiplies)",
                   {"variant", "total", "per op"});
    std::vector<bigint::U256> scalars;
    for (int i = 0; i < 200; ++i) {
      bigint::U256 k;
      for (auto& limb : k.limb) limb = rng.next_u64();
      scalars.push_back(k);
    }
    auto g2 = ec::G2::generator();
    util::Stopwatch watch;
    for (const auto& k : scalars) (void)g2.scalar_mul(k);
    double plain = watch.seconds();
    watch.reset();
    for (const auto& k : scalars) (void)g2.scalar_mul_wnaf(k);
    double wnaf = watch.seconds();
    t.row({"double-and-add", bench::fmt_seconds(plain),
           bench::fmt_seconds(plain / 200)});
    t.row({"wNAF (w=4)", bench::fmt_seconds(wnaf),
           bench::fmt_seconds(wnaf / 200) + " (" +
               bench::fmt_double(plain / wnaf, 2) + "x)"});
    t.print();
  }

  return 0;
}

// Table I — empirical check of the complexity table:
//
//   Operation              IBBE-SGX         IBBE (public-key path)
//   System Setup           O(|p|)           O(|S|)
//   Extract User Key       O(1)             O(1)
//   Create Group Key       |P| x O(|p|)     O(|S|^2)
//   Add User to Group      O(1)             (quadratic re-encrypt)
//   Remove User from Group |P| x O(1)       (quadratic re-encrypt)
//   Decrypt Group Key      O(|p|^2)         O(|S|^2)
//
// For each operation we measure a size sweep and report the log-log fitted
// growth exponent alongside the raw times. Constant-time rows should fit
// ~0; linear rows ~1. Group-element exponentiations dominate the measured
// decrypt at these sizes, so its quadratic Zr term (the asymptotic bound)
// only bends the curve near the PK crossover — the fit reports the observed
// regime and the raw numbers make the trend inspectable.
#include <cmath>

#include "common.h"
#include "crypto/drbg.h"
#include "ibbe/ibbe.h"
#include "util/stopwatch.h"

using namespace ibbe;

namespace {

std::vector<core::Identity> make_users(std::size_t n) {
  std::vector<core::Identity> users;
  users.reserve(n);
  for (std::size_t i = 0; i < n; ++i) users.push_back("user" + std::to_string(i));
  return users;
}

double fit_exponent(const std::vector<std::size_t>& xs,
                    const std::vector<double>& ys) {
  // Least-squares slope of log(y) on log(x).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  auto n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double lx = std::log(static_cast<double>(xs[i]));
    double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

std::string fmt_row(const std::vector<std::size_t>& sizes,
                    const std::vector<double>& times) {
  std::string out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(sizes[i]) + ":" + bench::fmt_seconds(times[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto scale = bench::parse_scale(argc, argv);
  std::printf("# Table I: operation complexity check [scale=%s]\n",
              bench::scale_name(scale));

  std::vector<std::size_t> sizes;
  switch (scale) {
    case bench::Scale::smoke:
      sizes = {32, 64, 128};
      break;
    case bench::Scale::full:
      sizes = {512, 1024, 2048, 4096};
      break;
    default:
      sizes = {128, 256, 512, 1024};
  }

  bench::Table table("Table I — measured times and fitted growth exponents",
                     {"operation", "expected", "fitted exponent", "samples"});
  crypto::Drbg rng(41);

  // System Setup: O(m).
  {
    std::vector<double> times;
    for (auto m : sizes) {
      util::Stopwatch watch;
      auto keys = core::setup(m, rng);
      times.push_back(watch.seconds());
    }
    table.row({"System Setup", "O(|p|) linear",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  auto keys = core::setup(sizes.back(), rng);

  // Extract: O(1) in m (measure across the same sweep; expect exponent ~0).
  {
    std::vector<double> times;
    for (auto m : sizes) {
      auto k = core::setup(m, rng);
      util::Stopwatch watch;
      for (int i = 0; i < 16; ++i) {
        (void)core::extract_user_key(k.msk, bench::numbered("u", i));
      }
      times.push_back(watch.seconds() / 16);
    }
    table.row({"Extract User Key", "O(1) flat",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Create (MSK path): O(|p|) per partition.
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      util::Stopwatch watch;
      (void)core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
      times.push_back(watch.seconds());
    }
    table.row({"Create Group Key (IBBE-SGX)", "O(|p|) linear*",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Create (public path): O(|S|^2) expansion + O(|S|) G2 exponentiations.
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      util::Stopwatch watch;
      (void)core::encrypt_public(keys.pk, users, rng);
      times.push_back(watch.seconds());
    }
    table.row({"Create Group Key (IBBE)", "O(|S|^2) superlinear",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Add user: O(1) regardless of partition fill.
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      auto enc = core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
      util::Stopwatch watch;
      core::add_user_with_msk(keys.msk, enc.ct, "late");
      times.push_back(watch.seconds());
    }
    table.row({"Add User to Group", "O(1) flat",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Remove user from one partition: O(1) regardless of partition fill.
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      auto enc = core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
      util::Stopwatch watch;
      (void)core::remove_users_with_msk(keys.msk, keys.pk, enc.ct,
                                        std::span(users.data(), 1), rng);
      times.push_back(watch.seconds());
    }
    table.row({"Remove User (per partition)", "O(1) flat",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Re-key: O(1).
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      auto enc = core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
      util::Stopwatch watch;
      (void)core::rekey(keys.pk, enc.ct, rng);
      times.push_back(watch.seconds());
    }
    table.row({"Re-key Broadcast Key", "O(1) flat",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  // Decrypt: O(|p|^2) Zr work + O(|p|) G2 exponentiations.
  {
    std::vector<double> times;
    for (auto n : sizes) {
      auto users = make_users(n);
      auto enc = core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
      auto usk = core::extract_user_key(keys.msk, users[0]);
      util::Stopwatch watch;
      (void)core::decrypt(keys.pk, usk, users, enc.ct);
      times.push_back(watch.seconds());
    }
    table.row({"Decrypt Group Key", "O(|p|^2) (exp-dominated: ~1 here)",
               bench::fmt_double(fit_exponent(sizes, times), 2),
               fmt_row(sizes, times)});
  }

  table.print();
  std::printf(
      "* the linear terms of MSK-path create are Zr multiplications (~60 ns)\n"
      "  under three fixed group exponentiations, so small sweeps read ~0;\n"
      "  contrast with the IBBE row where G2 exponentiations scale with |S|.\n");
  return 0;
}

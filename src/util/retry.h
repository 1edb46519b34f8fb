// Retry/backoff discipline for unreliable-store round trips.
//
// A RetryPolicy describes how a caller should space repeated attempts at an
// operation that can fail transiently: exponential backoff with a cap, a
// *deterministic* jitter (derived from the policy seed and the attempt
// number, so a failing run replays identically from its seed — the property
// the fault-injection harness depends on), and two budgets: a maximum
// attempt count and an optional wall-clock deadline.
//
// The policy is pure data plus a pure delay() function; retry_faults() is the
// one retry loop, keyed to the util/errors.h taxonomy: it retries exactly the
// FaultErrors whose kind is retryable (transient), while crash and integrity
// faults always propagate — so no retry loop anywhere can swallow a
// simulated process death or evidence of a Byzantine store.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "util/errors.h"

namespace ibbe::util {

struct RetryPolicy {
  /// Total tries (first attempt included). Exhausting them rethrows.
  int max_attempts = 6;
  /// Backoff before retry k (k >= 1) is base_delay * multiplier^(k-1),
  /// capped at max_delay, then jittered.
  std::chrono::microseconds base_delay{200};
  double multiplier = 2.0;
  std::chrono::microseconds max_delay{20'000};
  /// 0 = no wall-clock budget. When set, no retry starts past the deadline.
  std::chrono::milliseconds deadline{0};
  /// Fractional jitter: the delay is scaled by a factor drawn
  /// deterministically from [1 - jitter, 1 + jitter].
  double jitter = 0.25;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// Deterministic backoff before retry `attempt` (1-based).
  [[nodiscard]] std::chrono::microseconds delay(int attempt) const;

  /// A policy with zero sleeps — same attempt budget, no wall-clock cost.
  /// Tests and in-process benches use this so fault schedules stay fast.
  [[nodiscard]] RetryPolicy without_delays() const {
    RetryPolicy p = *this;
    p.base_delay = std::chrono::microseconds{0};
    p.max_delay = std::chrono::microseconds{0};
    return p;
  }
};

/// SplitMix64 step: the deterministic-jitter (and fault-plan) PRNG.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Runs `f`, retrying per `policy` exactly the FaultErrors whose kind()
/// reports retryable() (i.e. transient faults). Crash and integrity faults —
/// and any non-FaultError exception — propagate immediately, budget or not;
/// a transient fault propagates once the attempt/deadline budget is spent.
/// `retries` (optional) is incremented once per retry taken.
template <typename F>
auto retry_faults(const RetryPolicy& policy, F&& f,
                  std::uint64_t* retries = nullptr) -> decltype(f()) {
  const auto start = std::chrono::steady_clock::now();
  for (int attempt = 1;; ++attempt) {
    try {
      return f();
    } catch (const FaultError& e) {
      if (!e.retryable()) throw;
      if (attempt >= policy.max_attempts) throw;
      if (policy.deadline.count() > 0 &&
          std::chrono::steady_clock::now() - start >= policy.deadline) {
        throw;
      }
      if (retries != nullptr) ++*retries;
      auto pause = policy.delay(attempt);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
  }
}

}  // namespace ibbe::util

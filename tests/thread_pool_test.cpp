// Unit and stress tests for util::ThreadPool — the scheduling machinery
// itself, independent of any crypto. The determinism contract over real
// workloads (bitwise-equal outputs at every thread count) is pinned
// separately by tests/parallel_equivalence_test.cpp.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_util.h"

namespace ibbe {
namespace {

using util::ThreadPool;

TEST(ThreadPoolTest, ThreadsReportsTotalParallelism) {
  EXPECT_EQ(ThreadPool(1).threads(), 1u);
  EXPECT_EQ(ThreadPool(2).threads(), 2u);
  EXPECT_EQ(ThreadPool(4).threads(), 4u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(0, n, 2, [&](std::size_t i) { hits[i]++; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i
                                     << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, GrainEdgeShapes) {
  ThreadPool pool(4);
  const std::size_t grain = 8;
  // n = 0, 1, grain-1, grain, grain+1 — the shapes where the chunking math
  // (inline cutoff, ceil divisions) has off-by-one room.
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, grain - 1, grain, grain + 1}) {
    std::vector<int> hits(n, 0);  // plain ints: n <= grain runs inline
    std::atomic<std::size_t> total{0};
    pool.parallel_for(0, n, grain, [&](std::size_t i) {
      hits[i]++;
      total++;
    });
    EXPECT_EQ(total.load(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndReversedRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(10, 90, 1, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0);
  }
  // end < begin is an empty range, not a wraparound.
  pool.parallel_for(90, 10, 1, [&](std::size_t i) { hits[i] += 100; });
  for (std::size_t i = 0; i < 100; ++i) EXPECT_LT(hits[i].load(), 100);
}

TEST(ThreadPoolTest, SingleThreadModeRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.parallel_for(0, 64, 1, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
  // Zero resolves the IBBE_THREADS / hardware count — just run it; inline
  // or not, coverage must hold.
  ThreadPool auto_pool(0);
  std::atomic<int> n{0};
  auto_pool.parallel_for(0, 10, 1, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPoolTest, WorkDistributesAcrossThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.parallel_for(0, 256, 1, [&](std::size_t) {
    // Enough work per task that workers wake before the caller drains all.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  // On a single-core host the scheduler may still serialize onto few
  // threads; at least the caller participated and nothing deadlocked.
  EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPoolTest, SkewedTaskCostsRebalance) {
  // Seeded skew: a few indexes cost ~50x the rest. Correctness (every slot
  // holds the value its own index computes) must be unaffected by which
  // thread claims which chunk.
  auto& gen = testutil::rng();
  std::vector<int> cost(512);
  for (auto& c : cost) c = (gen() % 16 == 0) ? 50 : 1;
  auto work = [&](std::size_t i) {
    std::uint64_t acc = i + 1;
    for (int rep = 0; rep < cost[i] * 1000; ++rep) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return acc;
  };
  std::vector<std::uint64_t> expected(cost.size());
  for (std::size_t i = 0; i < cost.size(); ++i) expected[i] = work(i);

  ThreadPool pool(4);
  std::vector<std::uint64_t> out(cost.size());
  pool.parallel_for(0, cost.size(), 4,
                    [&](std::size_t i) { out[i] = work(i); });
  EXPECT_EQ(out, expected);
}

TEST(ThreadPoolTest, OversubscriptionTasksFarExceedWorkers) {
  ThreadPool pool(7);
  constexpr std::size_t kN = 20000;
  std::vector<std::uint8_t> hit(kN, 0);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, kN, 1, [&](std::size_t i) {
    hit[i] = 1;
    total++;
  });
  EXPECT_EQ(total.load(), kN);
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), std::size_t{0}), kN);
}

TEST(ThreadPoolTest, NestedParallelForExecutesInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> cells(16 * 16);
  std::atomic<bool> nested_escaped{false};
  pool.parallel_for(0, 16, 1, [&](std::size_t i) {
    const auto outer_thread = std::this_thread::get_id();
    pool.parallel_for(0, 16, 1, [&](std::size_t j) {
      // Nested loops stay on the worker that owns the outer task.
      if (std::this_thread::get_id() != outer_thread) nested_escaped = true;
      cells[i * 16 + j]++;
    });
  });
  EXPECT_FALSE(nested_escaped.load());
  for (auto& c : cells) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ExceptionFromTaskPropagatesToCaller) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 64, 1,
                          [&](std::size_t i) {
                            if (i == 13) {
                              throw std::runtime_error("boom");
                            }
                          }),
        std::runtime_error);
  }
}

TEST(ThreadPoolTest, RemainingChunksStillRunAndPoolIsReusableAfterThrow) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 128;
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.parallel_for(0, kN, 1, [&](std::size_t i) {
      hits[i]++;
      if (i == 0) throw std::logic_error("first chunk fails");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::logic_error&) {
  }
  // A throw abandons the rest of ITS chunk (like a serial loop abandons the
  // indexes after the throw) but every other queued chunk still executes and
  // no index runs twice. Chunks are at most ceil(kN / (4 * threads)) wide,
  // so at most that many indexes may be missing.
  std::size_t total = 0;
  for (auto& h : hits) {
    EXPECT_LE(h.load(), 1);
    total += static_cast<std::size_t>(h.load());
  }
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_GE(total, kN - (kN + 7) / 8);
  // The pool survives and schedules fresh batches.
  std::atomic<int> after{0};
  pool.parallel_for(0, 64, 1, [&](std::size_t) { after++; });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentCallersShareThePool) {
  // Several external threads fan out on one pool at once (the shape of
  // perfbench's reader threads next to the admin): their jobs interleave
  // on the shared workers, yet each caller's slots must equal the serial
  // result, every round.
  constexpr std::size_t kCallers = 3;
  constexpr int kRounds = 20;
  constexpr std::size_t kN = 300;
  auto work = [](std::size_t caller, int round, std::size_t i) {
    std::uint64_t acc =
        caller * 1000003 + static_cast<std::uint64_t>(round) * 7919 + i;
    for (int rep = 0; rep < 200; ++rep) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return acc;
  };

  ThreadPool pool(4);
  std::vector<std::vector<std::vector<std::uint64_t>>> out(
      kCallers, std::vector<std::vector<std::uint64_t>>(
                    kRounds, std::vector<std::uint64_t>(kN)));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        pool.parallel_for(0, kN, 3, [&](std::size_t i) {
          out[c][static_cast<std::size_t>(r)][i] = work(c, r, i);
        });
      }
    });
  }
  for (auto& t : callers) t.join();

  for (std::size_t c = 0; c < kCallers; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<std::uint64_t> expected(kN);
      for (std::size_t i = 0; i < kN; ++i) expected[i] = work(c, r, i);
      EXPECT_EQ(out[c][static_cast<std::size_t>(r)], expected)
          << "caller=" << c << " round=" << r;
    }
  }
}

TEST(ThreadPoolTest, ShutdownWhileIdle) {
  auto pool = std::make_unique<ThreadPool>(4);
  std::atomic<int> n{0};
  pool->parallel_for(0, 32, 1, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 32);
  pool.reset();  // workers are asleep; join must not hang
}

TEST(ThreadPoolTest, GlobalPoolHonorsSetGlobalThreads) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().threads(), 3u);
  std::atomic<int> n{0};
  ThreadPool::global().parallel_for(0, 48, 1, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 48);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().threads(), 1u);
}

TEST(ThreadPoolTest, ConfiguredThreadsParsesEnvironment) {
  ::setenv("IBBE_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::configured_threads(), 5u);
  ::setenv("IBBE_THREADS", "not-a-number", 1);
  const std::size_t fallback = ThreadPool::configured_threads();
  EXPECT_GE(fallback, 1u);  // falls back to hardware_concurrency
  ::setenv("IBBE_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
  ::unsetenv("IBBE_THREADS");
}

}  // namespace
}  // namespace ibbe

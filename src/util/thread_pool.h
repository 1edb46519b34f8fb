// Thread pool for the partition-parallel hot paths.
//
// Design constraints, in order:
//
//   1. **Determinism.** Every parallel site in this repo writes results into
//      pre-sized output slots — task i owns slot i and nothing else — and all
//      randomness is drawn on the calling thread BEFORE the fan-out, in the
//      exact order the serial code would draw it. Under that contract the
//      pool only changes WHEN work happens, never WHAT is computed, so
//      parallel outputs are bitwise-identical to the serial path at every
//      thread count (pinned by tests/parallel_equivalence_test.cpp).
//   2. **Serial recoverability.** `IBBE_THREADS=1` (or a pool built with
//      `threads <= 1`) spawns no workers at all: `parallel_for` degenerates
//      to an inline loop on the calling thread. CI runs the whole suite this
//      way on every commit.
//   3. **Simplicity over peak scheduler throughput.** Tasks here are
//      microseconds-to-milliseconds of pairing/EC arithmetic, far above the
//      cost of one mutex guarding a short list of in-flight jobs plus one
//      atomic chunk cursor per job. That is all the scheduling the pool
//      does, and it is easy to keep ThreadSanitizer-clean.
//
// Scheduling: `parallel_for` splits the index range into chunks (at least
// `grain` indexes each, at most 4 chunks per thread so skewed task costs
// still spread out) and appends one job to the pool's FIFO job list. Idle
// workers join the oldest job; every participant — workers and the CALLING
// thread alike — claims the next chunk with one `fetch_add` on the job's
// cursor until none is left. A worker joins a job only with its first chunk
// claimed, so the caller, which works only on its own job, then waits just
// for the chunks still running elsewhere. A pool with W workers therefore
// gives W+1-way parallelism; `ThreadPool(t)` sizes itself as t total threads
// including the caller. Concurrent callers may share one pool.
//
// Exceptions thrown by tasks are captured (first one wins), the other
// chunks of that job still execute (slots stay independently valid; the
// throwing chunk abandons its remaining indexes, as a serial loop would),
// and the exception is rethrown on the calling thread once the job
// completes. The pool survives and is reusable afterwards.
//
// Nesting: a `parallel_for` issued from inside a pool task executes inline
// on that thread (no deadlock, no oversubscription); the outer fan-out
// already owns the parallelism.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ibbe::util {

class ThreadPool {
 public:
  /// A pool whose total parallelism (workers + participating caller) is
  /// `threads`; `threads <= 1` spawns no workers and executes everything
  /// inline. `threads == 0` resolves the automatic count (the IBBE_THREADS
  /// environment variable if set, else std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers. A `parallel_for` must not be in flight on another
  /// thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: worker threads + the participating caller. 1 means
  /// fully inline.
  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Invokes fn(i) for every i in [begin, end), at least `grain` consecutive
  /// indexes per task. fn must confine its writes to per-index state (slot i
  /// for index i); under that contract results are identical to the serial
  /// loop. Blocks until every index ran; rethrows the first task exception.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    Fn&& fn) {
    run_chunks(begin, end, grain, [&fn](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// The process-wide pool the library's parallel sites use. Built on first
  /// use with the automatic thread count (IBBE_THREADS env, else
  /// hardware_concurrency).
  static ThreadPool& global();

  /// Rebuilds the global pool with `threads` total threads (0 = automatic).
  /// For tests and benches sweeping thread counts: callers must be quiescent
  /// (no parallel work in flight) across this call.
  static void set_global_threads(std::size_t threads);

  /// The automatic thread count `ThreadPool(0)` resolves to.
  [[nodiscard]] static std::size_t configured_threads();

 private:
  struct Job;

  void run_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);
  /// Runs chunk `c` of `job` (if it exists), then claims and runs further
  /// chunks until the job's cursor is exhausted.
  void drain(Job& job, std::size_t c);
  void worker_loop();

  std::vector<std::thread> workers_;

  // mutex_ guards jobs_, stop_ and each job's holders/error. Workers sleep
  // on wake_cv_ while jobs_ is empty; callers sleep on done_cv_ until no
  // worker holds their job.
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::deque<Job*> jobs_;  // in-flight jobs, oldest first
  bool stop_ = false;
};

}  // namespace ibbe::util

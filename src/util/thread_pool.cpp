#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace ibbe::util {

namespace {

/// Depth of pool-task nesting on this thread: a parallel_for issued from
/// inside a task executes inline (the outer fan-out owns the parallelism and
/// a blocking wait from a worker could deadlock the pool against itself).
thread_local int tls_task_depth = 0;

struct DepthGuard {
  DepthGuard() { ++tls_task_depth; }
  ~DepthGuard() { --tls_task_depth; }
};

}  // namespace

/// One parallel_for call, on the caller's stack. Workers touch it only under
/// mutex_ while it is on the job list, or while counted in `holders`; the
/// caller returns (so the Job dies) only after taking it off the list and
/// seeing `holders` reach 0.
struct ThreadPool::Job {
  const std::function<void(std::size_t, std::size_t)>& body;
  std::size_t begin, end, chunk_size, n_chunks;
  std::atomic<std::size_t> cursor{0};  // next unclaimed chunk
  std::size_t holders = 0;             // workers inside drain(); mutex_
  std::exception_ptr error{};          // first task exception; mutex_
};

std::size_t ThreadPool::configured_threads() {
  if (const char* env = std::getenv("IBBE_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<std::size_t>(v);
    }
  }
  std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = configured_threads();
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::drain(Job& job, std::size_t c) {
  DepthGuard depth;
  for (; c < job.n_chunks;
       c = job.cursor.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t lo = job.begin + c * job.chunk_size;
    const std::size_t hi = std::min(job.end, lo + job.chunk_size);
    try {
      job.body(lo, hi);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    wake_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping, and nothing is in flight
    Job& job = *jobs_.front();
    // The first claim happens under the lock, so a worker holds a job only
    // with a chunk in hand: the caller never waits on a worker that woke
    // after the last chunk was claimed.
    const std::size_t c = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) {
      jobs_.pop_front();  // exhausted: nothing left for anyone to claim
      continue;
    }
    ++job.holders;
    lock.unlock();
    drain(job, c);
    lock.lock();
    if (--job.holders == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  // Inline when serial mode, nested inside a pool task, or the range fits a
  // single grain — the serial path, bit-for-bit.
  if (workers_.empty() || tls_task_depth > 0 || n <= g) {
    body(begin, end);
    return;
  }

  // At most 4 chunks per thread lets skewed task costs spread over the
  // threads without shrinking chunks below the grain.
  const std::size_t max_chunks = std::min((n + g - 1) / g, 4 * threads());
  const std::size_t chunk_size = (n + max_chunks - 1) / max_chunks;
  Job job{body, begin, end, chunk_size, (n + chunk_size - 1) / chunk_size};
  {
    std::lock_guard lock(mutex_);
    jobs_.push_back(&job);
  }
  wake_cv_.notify_all();

  drain(job, job.cursor.fetch_add(1, std::memory_order_relaxed));
  std::unique_lock lock(mutex_);
  std::erase(jobs_, &job);
  done_cv_.wait(lock, [&job] { return job.holders == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard lock(global_mutex());
  auto& slot = global_slot();
  slot.reset();  // join the old pool first: at most one global pool alive
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace ibbe::util

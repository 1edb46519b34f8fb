// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer: AdminApi / ClientApi calls (system), every CloudStore verb
// (cloud, or net when the store is a RemoteStore), and the ECALLs the
// benchmark makes itself (enclave). Each thread appends to its own buffer,
// so recording takes no lock; buffers live as long as the Tracer, which
// outlives every thread that records (the NetServer's session threads too).
//
// A span's parent is the span open on the same thread when it began, and
// every span carries the end-to-end op id current on its thread. The store
// behind a NetServer runs on server threads with no such parent; its spans
// are paired with the RPC span that contains them (same verb and byte count,
// nested in time) when the report is built.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  system_admin,  // an AdminApi call
  system_client, // a ClientApi call
  enclave,       // an ECALL the benchmark makes itself
  cloud,         // a CloudStore verb on the store that holds the data
  net,           // a CloudStore verb on a RemoteStore (one RPC)
  served,        // a CloudStore verb a NetServer session ran on its store
};

enum class Verb : std::uint8_t {
  put, put_cas, get, get_versioned, file_version, erase, list, dir_version,
  long_poll, stats, stored_bytes,
  // API calls
  create_group, add_user, remove_user, fetch, wait_for_update,
  verify_credentials, load_enclave, extract_user_key,
};

/// Object kind of a store path, from the metadata.h / oplog.h path helpers.
enum class ObjKind : std::uint8_t {
  manifest, shard, bundle, overlay, delta, gk, log, gossip, other
};
constexpr int obj_kind_count = 9;
const char* obj_kind_name(ObjKind kind);

using Clock = std::chrono::steady_clock;
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;     // end-to-end op id (0 = none)
  std::uint64_t bytes = 0;  // payload moved by a store verb
  std::int32_t parent = -1; // index in the same thread's buffer
  Layer layer = Layer::cloud;
  Verb verb = Verb::get;
  ObjKind kind = ObjKind::other;
};

struct ThreadSpans {
  int thread = 0;
  std::vector<Span> spans;  // in start order
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The active tracer, or nullptr when the run is untraced.
  static Tracer* active();
  /// Installs `t` (nullptr = stop tracing). Call with no recording thread
  /// running.
  static void install(Tracer* t);

  /// Opens a span on the calling thread; returns its index.
  std::int32_t begin(Layer layer, Verb verb, ObjKind kind);
  void end(std::int32_t index, std::uint64_t bytes);

  /// Sets the end-to-end op id that spans opened on this thread carry.
  static void set_op(std::uint64_t op);
  /// Thread number of the calling thread in this tracer's buffers.
  int thread_id();

  /// All buffers. Call only once every recording thread has stopped.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadSpans>>& threads()
      const {
    return buffers_;
  }

 private:
  ThreadSpans& local();

  const std::uint64_t generation_;  // tells this tracer's buffers apart
  std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

/// Tracer thread number of the calling thread, or -1 when untraced.
inline int traced_thread() {
  Tracer* t = Tracer::active();
  return t == nullptr ? -1 : t->thread_id();
}

/// RAII span; inert when no tracer is installed.
class Scope {
 public:
  Scope(Layer layer, Verb verb, ObjKind kind = ObjKind::other)
      : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) index_ = tracer_->begin(layer, verb, kind);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_, bytes_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench

#include "trace.h"

#include <atomic>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};

std::atomic<std::uint64_t> g_generation{0};

struct ThreadState {
  std::uint64_t owner = 0;  // generation of the tracer `buffer` belongs to
  ThreadSpans* buffer = nullptr;
  std::vector<std::int32_t> open;  // indices of open spans, innermost last
  std::uint64_t op = 0;
};
thread_local ThreadState t_state;

}  // namespace

const char* obj_kind_name(ObjKind kind) {
  switch (kind) {
    case ObjKind::manifest: return "manifest";
    case ObjKind::shard: return "shard";
    case ObjKind::bundle: return "bundle";
    case ObjKind::overlay: return "overlay";
    case ObjKind::delta: return "delta";
    case ObjKind::gk: return "gk";
    case ObjKind::log: return "log";
    case ObjKind::gossip: return "gossip";
    case ObjKind::other: return "other";
  }
  return "other";
}

Tracer::Tracer() : generation_(++g_generation) {}

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }

void Tracer::install(Tracer* t) { g_active.store(t, std::memory_order_release); }

void Tracer::set_op(std::uint64_t op) { t_state.op = op; }

ThreadSpans& Tracer::local() {
  if (t_state.owner != generation_) {
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->spans.reserve(1 << 12);
    {
      std::lock_guard lock(mutex_);
      buffer->thread = static_cast<int>(buffers_.size());
      t_state.buffer = buffer.get();
      buffers_.push_back(std::move(buffer));
    }
    t_state.owner = generation_;
    t_state.open.clear();
  }
  return *t_state.buffer;
}

int Tracer::thread_id() { return local().thread; }

std::int32_t Tracer::begin(Layer layer, Verb verb, ObjKind kind) {
  ThreadSpans& buf = local();
  Span span;
  span.start_ns = now_ns();
  span.op = t_state.op;
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  span.layer = layer;
  span.verb = verb;
  span.kind = kind;
  const auto index = static_cast<std::int32_t>(buf.spans.size());
  buf.spans.push_back(span);
  t_state.open.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index, std::uint64_t bytes) {
  ThreadSpans& buf = local();
  Span& span = buf.spans[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.bytes = bytes;
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
}

}  // namespace perfbench

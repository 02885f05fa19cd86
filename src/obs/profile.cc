#include "obs/profile.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>

namespace repli::obs {
namespace {

// Thread-local allocation counters, bumped by the replacement operator new
// below. Plain (non-atomic) because they are thread-local; the replacement
// operators themselves must be async-signal-unsafe-free and reentrant-safe,
// which malloc/free plus two increments are.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t thread_alloc_count() { return t_alloc_count; }
std::uint64_t thread_alloc_bytes() { return t_alloc_bytes; }

std::string_view cost_center_name(CostCenter c) {
  switch (c) {
    case CostCenter::WireEncode: return "wire.encode";
    case CostCenter::WireDecode: return "wire.decode";
    case CostCenter::SimDispatch: return "sim.dispatch";
    case CostCenter::NetDelivery: return "net.delivery";
    case CostCenter::GcsAbcast: return "gcs.abcast";
    case CostCenter::GcsLink: return "gcs.link";
    case CostCenter::LockMgr: return "db.lock";
    case CostCenter::Technique: return "core.technique";
    case CostCenter::Checker: return "check";
  }
  return "?";
}

Profiler& Profiler::global() {
  thread_local Profiler p;
  return p;
}

void Profiler::clear() {
  buckets_ = {};
  // Open frames keep their start snapshots; their eventual deltas simply
  // land in the fresh buckets.
}

ProfScope::ProfScope(CostCenter center) {
  Profiler& p = Profiler::global();
  active_ = p.enabled_;
  if (!active_) return;
  p.stack_.push_back(Profiler::Frame{center, steady_ns(), t_alloc_count, t_alloc_bytes, 0, 0, 0});
}

ProfScope::~ProfScope() {
  if (!active_) return;
  Profiler& p = Profiler::global();
  if (p.stack_.empty()) return;  // clear()+disable() race; nothing to pop
  Profiler::Frame f = p.stack_.back();
  p.stack_.pop_back();

  const std::uint64_t now = steady_ns();
  const std::uint64_t total_ns = now >= f.start_ns ? now - f.start_ns : 0;
  const std::uint64_t total_allocs = t_alloc_count - f.start_allocs;
  const std::uint64_t total_bytes = t_alloc_bytes - f.start_alloc_bytes;
  const std::uint64_t self_ns = total_ns >= f.child_ns ? total_ns - f.child_ns : 0;
  const std::uint64_t self_allocs =
      total_allocs >= f.child_allocs ? total_allocs - f.child_allocs : 0;
  const std::uint64_t self_bytes =
      total_bytes >= f.child_alloc_bytes ? total_bytes - f.child_alloc_bytes : 0;

  CostBucket& b = p.buckets_[static_cast<std::size_t>(f.center)];
  b.calls += 1;
  b.self_ns += self_ns;
  b.total_ns += total_ns;
  b.self_allocs += self_allocs;
  b.self_alloc_bytes += self_bytes;

  if (!p.stack_.empty()) {
    Profiler::Frame& parent = p.stack_.back();
    parent.child_ns += total_ns;
    parent.child_allocs += total_allocs;
    parent.child_alloc_bytes += total_bytes;
  }
}

void write_folded(const Tracer& tracer, std::ostream& os) {
  const auto& spans = tracer.spans();
  const Time latest = tracer.latest();

  // Self-time per span: duration minus the summed durations of direct
  // children (clamped at zero — identical-interval ties give the parent
  // zero self-time, which is the honest answer).
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.kind == SpanKind::Instant ? 0 : s.effective_end(latest) - s.start;
  }
  for (const Span& s : spans) {
    if (s.kind == SpanKind::Instant) continue;
    SpanId parent = tracer.parent_of(s.id);
    if (parent == kNoSpan) continue;
    self[parent - 1] -= s.effective_end(latest) - s.start;
  }

  // Folded stack per span: "node<N>;<root name>;...;<span name>".
  std::map<std::string, std::int64_t> folded;
  std::vector<std::string_view> frames;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::Instant) continue;
    frames.clear();
    for (SpanId id = s.id; id != kNoSpan; id = tracer.parent_of(id)) {
      frames.push_back(tracer.find(id)->name);
    }
    std::string stack = "node" + std::to_string(s.node);
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      stack += ';';
      stack += *it;
    }
    folded[stack] += std::max<std::int64_t>(self[s.id - 1], 0);
  }

  for (const auto& [stack, us] : folded) {
    if (us <= 0) continue;
    os << stack << ' ' << us << '\n';
  }
}

bool write_folded_file(const Tracer& tracer, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_folded(tracer, os);
  return os.good();
}

}  // namespace repli::obs

// -- Counting global allocator ----------------------------------------------
//
// Replacing the global operator new/delete pair lets the profiler attribute
// heap churn without touching call sites. The replacements forward to
// malloc/free (so sanitizers still interpose at the malloc layer) and bump
// the thread-local counters unconditionally — two increments, no branches,
// cheap enough to leave on always. Sized/aligned/nothrow variants must all
// be replaced together or the default ones would bypass counting.

namespace {

void* counted_alloc(std::size_t size) {
  repli::obs::t_alloc_count += 1;
  repli::obs::t_alloc_bytes += size;
  return std::malloc(size ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  repli::obs::t_alloc_count += 1;
  repli::obs::t_alloc_bytes += size;
  // aligned_alloc requires size to be a multiple of alignment.
  std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

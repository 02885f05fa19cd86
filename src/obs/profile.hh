// Scoped per-op cost accounting.
//
// The span tracer answers *what happened* in simulated time; the profiler
// answers *what the host pays* for it: wall-clock self-time (steady-clock
// ns) and heap activity (allocation count/bytes, via the counting global
// operator new installed in profile.cc) attributed to a small fixed
// taxonomy of cost centers — the layers the ROADMAP's mechanical-sympathy
// item wants to make visible and then crush.
//
// Attribution is by scope nesting: a ProfScope pushes a frame; on exit the
// frame's *self* cost (total minus the totals of nested scopes) is added to
// its cost center, and its total is propagated to the parent frame. So
// "gcs.abcast" self-time excludes the wire encodes it triggers, which land
// in "wire.encode" — exactly the breakdown a flamegraph gives, collapsed to
// the taxonomy.
//
// Profiling is strictly read-only with respect to the simulation: it never
// touches simulated time, the RNG, the tracer, or the metrics registry, so
// runs are bit-identical with profiling on or off (a tested guarantee).
// When the thread's profiler is disabled (the default) a ProfScope is one
// branch; heap counting is two thread-local increments per allocation.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "obs/trace.hh"

namespace repli::obs {

/// The cost-center taxonomy. Keep in sync with cost_center_name() and
/// docs/METRICS.md; the PROF_*.json schema spells these names out.
enum class CostCenter : std::uint8_t {
  WireEncode,   // wire.encode: message/frame encoding to bytes
  WireDecode,   // wire.decode: bytes back to message objects
  SimDispatch,  // sim.dispatch: event-loop pop/run + un-attributed handler code
  NetDelivery,  // net.delivery: simulated network send/deliver bookkeeping
  GcsAbcast,    // gcs.abcast: total-order broadcast protocol logic
  GcsLink,      // gcs.link: reliable-link ARQ (seq/ack/retransmit/dedup)
  LockMgr,      // db.lock: lock table, queues, deadlock detection
  Technique,    // core.technique: replication-technique logic + execution
  Checker,      // check: 1SR / linearizability / sequential checkers
};

inline constexpr std::size_t kCostCenterCount = 9;

std::string_view cost_center_name(CostCenter c);

/// Accumulated cost of one center. "self" excludes nested scopes; "total"
/// includes them (useful to sanity-check the hierarchy, not for summing).
struct CostBucket {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_allocs = 0;
  std::uint64_t self_alloc_bytes = 0;
};

/// Allocation counters of the current thread (monotonic since thread
/// start). Counted by the replacement operator new in profile.cc; exposed
/// for microbenchmarks that want raw deltas without a Profiler.
std::uint64_t thread_alloc_count();
std::uint64_t thread_alloc_bytes();

class Profiler {
 public:
  /// The calling thread's profiler. A run executes on one thread, so its
  /// cost lands in that thread's profiler, as its allocations land in that
  /// thread's counters.
  static Profiler& global();

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  const std::array<CostBucket, kCostCenterCount>& buckets() const { return buckets_; }
  const CostBucket& bucket(CostCenter c) const {
    return buckets_[static_cast<std::size_t>(c)];
  }

  /// Drops all accumulated cost (open scopes keep working).
  void clear();

 private:
  friend class ProfScope;
  struct Frame {
    CostCenter center{};
    std::uint64_t start_ns = 0;
    std::uint64_t start_allocs = 0;
    std::uint64_t start_alloc_bytes = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t child_allocs = 0;
    std::uint64_t child_alloc_bytes = 0;
  };

  // Reserved up front so pushing a frame never allocates — the profiler
  // must not see its own heap activity in the buckets.
  Profiler() { stack_.reserve(64); }

  bool enabled_ = false;
  std::array<CostBucket, kCostCenterCount> buckets_{};
  std::vector<Frame> stack_;
};

/// RAII cost-center scope. No-op (one branch) when the thread's profiler is
/// disabled, so instrumentation can stay in hot paths unconditionally.
class ProfScope {
 public:
  explicit ProfScope(CostCenter center);
  ~ProfScope();

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool active_;
};

/// Writes the span tree as folded flamegraph stacks ("node0;core/EX;db/...
/// <self-us>" per line, lexicographically sorted, self-time in simulated
/// microseconds, instants skipped). Feed to flamegraph.pl / speedscope.
void write_folded(const Tracer& tracer, std::ostream& os);
bool write_folded_file(const Tracer& tracer, const std::string& path);

}  // namespace repli::obs

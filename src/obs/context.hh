// Ambient trace context scopes and per-node Lamport clocks.
//
// The context of the currently executing event belongs to the run: it lives
// in the run's obs::Tracer (Tracer::context()). Simulator captures it when
// an event is scheduled and restores it (via ContextScope) around the
// event's execution, which covers timers, cpu_execute continuations, and
// network deliveries alike. Network::send stamps the ambient context onto
// the wire frame; delivery opens a scope carrying the merged Lamport clock,
// so one client request yields one connected trace across every replica it
// touches.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hh"

namespace repli::obs {

/// RAII: installs `ctx` as `tracer`'s ambient context, restores the previous
/// one on destruction. Scopes nest.
class ContextScope {
 public:
  ContextScope(Tracer& tracer, TraceContext ctx) : tracer_(tracer), saved_(tracer.context_) {
    tracer.context_ = ctx;
  }
  ~ContextScope() { tracer_.context_ = saved_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Tracer& tracer_;
  TraceContext saved_;
};

/// One Lamport clock per node. tick() before a send, merge() on delivery.
class LamportClocks {
 public:
  /// Advances `node`'s clock by one and returns the new value.
  std::int64_t tick(NodeId node);
  /// Merges a clock value seen on an incoming message: clock becomes
  /// max(local, seen) + 1. Returns the new value.
  std::int64_t merge(NodeId node, std::int64_t seen);
  std::int64_t value(NodeId node) const;

 private:
  std::int64_t& slot(NodeId node);
  std::vector<std::int64_t> clocks_;
};

}  // namespace repli::obs

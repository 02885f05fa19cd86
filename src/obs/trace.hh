// Hierarchical span tracer.
//
// A span is a named interval on one node — optionally tied to a request id
// and carrying key/value attributes. Span names are layered by prefix
// ("core/", "gcs/", "db/", "net/"): the functional-model phases of the
// paper (core/RE .. core/END) are spans like any other, so a Perfetto
// timeline shows the GCS rounds and storage work *inside* the phase that
// pays for them.
//
// Parentage is resolved by time containment per node: a span's parent is
// the smallest same-node span that encloses it. This matches how trace
// viewers nest events and — crucially for a discrete-event simulator, where
// phases are often recorded retrospectively — it works no matter the order
// spans were recorded in. Ties (identical intervals, common when no
// simulated time passes inside one event handler) resolve to the
// earlier-recorded span as the parent, so record the semantic parent first.
// Containment is the only parent rule, so a trace read back from its
// export (obs::read_chrome_trace) resolves to exactly the same tree.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/chunked_store.hh"

namespace repli::obs {

using Time = std::int64_t;    // microseconds, same clock as sim::Time
using NodeId = std::int32_t;  // same identity space as sim::NodeId

using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

using Attrs = std::vector<std::pair<std::string, std::string>>;

enum class SpanKind { Interval, Instant };

struct Span {
  SpanId id = kNoSpan;
  NodeId node = -1;
  std::uint64_t trace = 0;  // causal trace id (0: outside any trace)
  std::string name;     // layered, e.g. "core/EX", "gcs/consensus.round"
  std::string request;  // request/transaction id; may be empty
  Time start = 0;
  Time end = 0;  // meaningful when !open
  SpanKind kind = SpanKind::Interval;
  bool open = false;
  Attrs attrs;

  Time effective_end(Time latest) const { return open ? latest : end; }
};

/// A cross-node message edge: sender span -> receiving node, with the
/// Lamport clock on both ends. Rendered as Chrome trace flow events so
/// Perfetto draws the message arrows of the paper's figures.
struct Flow {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;       // causal trace id (0: outside any trace)
  SpanId src_span = kNoSpan;     // innermost open span on the sender
  NodeId from = -1;
  NodeId to = -1;
  Time sent = 0;
  Time recv = 0;
  std::int64_t lamport_send = 0;
  std::int64_t lamport_recv = 0;  // filled in at delivery
  std::size_t bytes = 0;          // encoded size of the logical message
  // Wire type name; views the type's static kTypeName storage.
  std::string_view type;
};

/// The causal context of the event now executing: the trace it belongs to,
/// the sender-side parent span and the Lamport clock it arrived with.
struct TraceContext {
  std::uint64_t trace_id = 0;   // 0: no active trace
  SpanId parent_span = kNoSpan; // causal parent span (sender side)
  std::int64_t lamport = 0;     // logical clock of the originating node

  bool valid() const { return trace_id != 0; }
};

/// Append-only record stores: ids index them (record i has id i + 1), and
/// a record's address is stable for the tracer's lifetime (until clear()),
/// moves included.
using SpanStore = util::ChunkedStore<Span>;
using FlowStore = util::ChunkedStore<Flow>;

class Tracer {
 public:
  /// Opens a span; close it later with end(). Begin/end may straddle many
  /// simulator events (e.g. a consensus round, a lock wait).
  SpanId begin(NodeId node, std::string name, Time start, std::string request = "");
  void end(SpanId id, Time end_time);

  /// Records a completed span retrospectively.
  SpanId record(NodeId node, std::string name, Time start, Time end, std::string request = "",
                Attrs attrs = {});

  /// Records a point event (suspicion, drop, deadlock, ...).
  SpanId instant(NodeId node, std::string name, Time at, std::string request = "",
                 Attrs attrs = {});

  void attr(SpanId id, std::string key, std::string value);

  /// Allocates a fresh causal trace id (1, 2, ...). Spans recorded while a
  /// context carrying the id is current are stamped with it.
  std::uint64_t new_trace_id() { return ++last_trace_id_; }

  /// The ambient context of the run that owns this tracer (zero outside any
  /// ContextScope). Each run has its own, so runs on different threads never
  /// see each other's context.
  const TraceContext& context() const { return context_; }

  /// Records a message edge; assigns and returns its id.
  std::uint64_t flow(Flow f);
  /// Completes a flow at delivery with the receiver's merged Lamport clock.
  void flow_recv_lamport(std::uint64_t id, std::int64_t lamport);
  const FlowStore& flows() const { return flows_; }

  /// The latest-begun still-open span on `node` (kNoSpan when none) — the
  /// sender-side anchor for outgoing flows.
  SpanId innermost_open(NodeId node) const;

  /// Ends every still-open span at `t` (run teardown before export).
  void close_open(Time t);

  const SpanStore& spans() const { return spans_; }
  const Span* find(SpanId id) const;
  std::size_t size() const { return spans_.size(); }
  /// Latest start/end time seen (effective end for still-open spans).
  Time latest() const { return latest_; }

  // -- Tree queries (containment-resolved; deterministic) --
  SpanId parent_of(SpanId id) const;
  std::vector<SpanId> children_of(SpanId id) const;
  /// True when some ancestor's name starts with `name_prefix`.
  bool has_ancestor_named(SpanId id, std::string_view name_prefix) const;
  /// All spans whose name starts with `name_prefix`, in id order.
  std::vector<const Span*> named(std::string_view name_prefix) const;

  void clear();

 private:
  friend class ContextScope;

  Span& span_at(SpanId id);
  /// Appends `span` with the next id and the current context's trace id.
  SpanId push(Span span);
  void resolve() const;
  std::vector<SpanId>& open_stack(NodeId node);
  void unregister_open(NodeId node, SpanId id);

  SpanStore spans_;  // spans_[i].id == i + 1
  // Per-node ids of still-open spans, in begin order (indexed node + 1 so
  // kNoNode-style negatives fit). innermost_open() reads the back in O(1);
  // the old implementation rescanned the whole span history per call, which
  // made every Network::send O(run length).
  std::vector<std::vector<SpanId>> open_;
  FlowStore flows_;  // flows_[i].id == i + 1
  std::uint64_t last_trace_id_ = 0;
  TraceContext context_;
  Time latest_ = 0;
  mutable std::vector<SpanId> parents_;  // parallel to spans_
  mutable bool resolved_ = false;
};

}  // namespace repli::obs

#include "obs/trace.hh"

#include <algorithm>
#include <map>

#include "util/assert.hh"

namespace repli::obs {

Span& Tracer::span_at(SpanId id) {
  util::ensure(id != kNoSpan && id <= spans_.size(), "Tracer: bad span id");
  resolved_ = false;
  return spans_[static_cast<std::size_t>(id - 1)];
}

std::vector<SpanId>& Tracer::open_stack(NodeId node) {
  const auto idx = static_cast<std::size_t>(node + 1);  // node -1 fits at 0
  if (open_.size() <= idx) open_.resize(idx + 1);
  return open_[idx];
}

void Tracer::unregister_open(NodeId node, SpanId id) {
  auto& stack = open_stack(node);
  // Usually the innermost span closes first, so scan from the back.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == id) {
      stack.erase(std::next(it).base());
      return;
    }
  }
  util::fail("Tracer: closing a span that is not open");
}

SpanId Tracer::push(Span span) {
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.trace = context_.trace_id;
  latest_ = std::max(latest_, span.end);  // end >= start
  resolved_ = false;
  return spans_.emplace_back(std::move(span)).id;
}

SpanId Tracer::begin(NodeId node, std::string name, Time start, std::string request) {
  const SpanId id = push(Span{.node = node,
                              .name = std::move(name),
                              .request = std::move(request),
                              .start = start,
                              .end = start,
                              .open = true,
                              .attrs = {}});
  open_stack(node).push_back(id);
  return id;
}

void Tracer::end(SpanId id, Time end_time) {
  Span& span = span_at(id);
  util::ensure(span.open, "Tracer::end: span already closed");
  util::ensure(end_time >= span.start, "Tracer::end: end before start");
  span.end = end_time;
  span.open = false;
  latest_ = std::max(latest_, end_time);
  unregister_open(span.node, id);
}

SpanId Tracer::record(NodeId node, std::string name, Time start, Time end, std::string request,
                      Attrs attrs) {
  util::ensure(end >= start, "Tracer::record: end before start");
  return push(Span{.node = node,
                   .name = std::move(name),
                   .request = std::move(request),
                   .start = start,
                   .end = end,
                   .attrs = std::move(attrs)});
}

SpanId Tracer::instant(NodeId node, std::string name, Time at, std::string request, Attrs attrs) {
  return push(Span{.node = node,
                   .name = std::move(name),
                   .request = std::move(request),
                   .start = at,
                   .end = at,
                   .kind = SpanKind::Instant,
                   .attrs = std::move(attrs)});
}

void Tracer::attr(SpanId id, std::string key, std::string value) {
  span_at(id).attrs.emplace_back(std::move(key), std::move(value));
}

std::uint64_t Tracer::flow(Flow f) {
  f.id = static_cast<std::uint64_t>(flows_.size() + 1);
  return flows_.emplace_back(std::move(f)).id;
}

void Tracer::flow_recv_lamport(std::uint64_t id, std::int64_t lamport) {
  util::ensure(id != 0 && id <= flows_.size(), "Tracer::flow_recv_lamport: bad flow id");
  flows_[static_cast<std::size_t>(id - 1)].lamport_recv = lamport;
}

SpanId Tracer::innermost_open(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node + 1);
  if (idx >= open_.size() || open_[idx].empty()) return kNoSpan;
  return open_[idx].back();
}

void Tracer::close_open(Time t) {
  for (auto& span : spans_) {
    if (!span.open) continue;
    span.end = std::max(span.start, t);
    span.open = false;
    latest_ = std::max(latest_, span.end);
  }
  for (auto& stack : open_) stack.clear();
  resolved_ = false;
}

const Span* Tracer::find(SpanId id) const {
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[static_cast<std::size_t>(id - 1)];
}

void Tracer::resolve() const {
  if (resolved_) return;
  parents_.assign(spans_.size(), kNoSpan);

  // Per node: sort by (start asc, effective end desc, id asc) and sweep with
  // an enclosing-span stack. With that order, when a span is visited every
  // span still on the stack starts no later than it; popping everything that
  // ends before it leaves its smallest encloser on top. Identical intervals
  // sort by id, so the earlier-recorded span becomes the parent.
  std::map<NodeId, std::vector<const Span*>> by_node;
  for (const auto& span : spans_) by_node[span.node].push_back(&span);

  for (auto& [node, list] : by_node) {
    std::sort(list.begin(), list.end(), [this](const Span* a, const Span* b) {
      if (a->start != b->start) return a->start < b->start;
      const Time ea = a->effective_end(latest_);
      const Time eb = b->effective_end(latest_);
      if (ea != eb) return ea > eb;
      return a->id < b->id;
    });
    std::vector<const Span*> stack;
    for (const Span* span : list) {
      const Time end = span->effective_end(latest_);
      while (!stack.empty() && stack.back()->effective_end(latest_) < end) stack.pop_back();
      // Instants never contain intervals; skip instant enclosers for
      // non-instant spans of the same zero-width interval.
      while (!stack.empty() && stack.back()->kind == SpanKind::Instant) stack.pop_back();
      if (!stack.empty()) {
        parents_[static_cast<std::size_t>(span->id - 1)] = stack.back()->id;
      }
      stack.push_back(span);
    }
  }
  resolved_ = true;
}

SpanId Tracer::parent_of(SpanId id) const {
  util::ensure(id != kNoSpan && id <= spans_.size(), "Tracer::parent_of: bad span id");
  resolve();
  return parents_[static_cast<std::size_t>(id - 1)];
}

std::vector<SpanId> Tracer::children_of(SpanId id) const {
  resolve();
  std::vector<SpanId> out;
  for (const auto& span : spans_) {
    if (parents_[static_cast<std::size_t>(span.id - 1)] == id) out.push_back(span.id);
  }
  std::sort(out.begin(), out.end(), [this](SpanId a, SpanId b) {
    const Span* sa = find(a);
    const Span* sb = find(b);
    if (sa->start != sb->start) return sa->start < sb->start;
    return a < b;
  });
  return out;
}

bool Tracer::has_ancestor_named(SpanId id, std::string_view name_prefix) const {
  resolve();
  SpanId cur = parent_of(id);
  // Parent chains are acyclic: containment is a partial order.
  while (cur != kNoSpan) {
    const Span* span = find(cur);
    if (span->name.compare(0, name_prefix.size(), name_prefix) == 0) return true;
    cur = parents_[static_cast<std::size_t>(cur - 1)];
  }
  return false;
}

std::vector<const Span*> Tracer::named(std::string_view name_prefix) const {
  std::vector<const Span*> out;
  for (const auto& span : spans_) {
    if (span.name.compare(0, name_prefix.size(), name_prefix) == 0) out.push_back(&span);
  }
  return out;
}

void Tracer::clear() {
  spans_.clear();
  flows_.clear();
  parents_.clear();
  open_.clear();
  latest_ = 0;
  resolved_ = false;
}

}  // namespace repli::obs

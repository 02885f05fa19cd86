#include "obs/export_chrome.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>

#include "obs/context.hh"
#include "obs/json.hh"
#include "util/log.hh"

namespace repli::obs {

namespace {

/// Category = first path segment of the span name ("gcs/consensus.round" ->
/// "gcs"); lets Perfetto filter by layer.
std::string_view category_of(const std::string& name) {
  const auto slash = name.find('/');
  return slash == std::string::npos ? std::string_view(name)
                                    : std::string_view(name).substr(0, slash);
}

void write_args(JsonWriter& w, const Span& span) {
  if (span.request.empty() && span.attrs.empty() && span.trace == 0) return;
  w.key("args").begin_object();
  if (!span.request.empty()) w.field("request", span.request);
  if (span.trace != 0) w.field("trace", static_cast<std::int64_t>(span.trace));
  for (const auto& [key, value] : span.attrs) w.field(key, value);
  w.end_object();
}

/// Largest integer a JSON number (a double) holds exactly.
constexpr std::int64_t kMaxExact = std::int64_t{1} << 53;
constexpr std::int64_t kMinNode = std::numeric_limits<NodeId>::min();
constexpr std::int64_t kMaxNode = std::numeric_limits<NodeId>::max();

/// Reads integer member `key` of `obj` (nullptr: no such object) into `out`.
/// False when the member is not an integer in [lo, hi], or is absent and
/// `required`; an absent optional member leaves `out` untouched.
bool read_int(const JsonValue* obj, std::string_view key, std::int64_t lo, std::int64_t hi,
              bool required, std::int64_t& out) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  if (v == nullptr) return !required;
  if (!v->is(JsonValue::Type::Number)) return false;
  const double x = v->number;
  if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi)) || std::floor(x) != x) {
    return false;
  }
  out = static_cast<std::int64_t>(x);
  return true;
}

std::string string_of(const JsonValue* v) {
  return v != nullptr && v->is(JsonValue::Type::String) ? v->str : "";
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Metadata: name the process and one track per node, so the timeline reads
  // "node 0", "node 1", ... instead of bare tids.
  std::set<NodeId> nodes;
  for (const auto& span : tracer.spans()) nodes.insert(span.node);
  w.begin_object();
  w.field("name", "process_name").field("ph", "M").field("pid", 0).field("tid", 0);
  w.key("args").begin_object().field("name", "replikit").end_object();
  w.end_object();
  for (const NodeId node : nodes) {
    w.begin_object();
    w.field("name", "thread_name").field("ph", "M").field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(node));
    w.key("args").begin_object().field("name", "node " + std::to_string(node)).end_object();
    w.end_object();
  }

  // Events sorted by (ts, id) — viewers require non-decreasing timestamps
  // within a track to nest slices correctly.
  std::vector<const Span*> ordered;
  ordered.reserve(tracer.size());
  for (const auto& span : tracer.spans()) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(), [](const Span* a, const Span* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->id < b->id;
  });

  const Time latest = tracer.latest();
  for (const Span* span : ordered) {
    w.begin_object();
    w.field("name", span->name);
    w.field("cat", category_of(span->name));
    w.field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(span->node));
    w.field("ts", span->start);
    if (span->kind == SpanKind::Instant) {
      w.field("ph", "i").field("s", "t");  // thread-scoped instant
    } else {
      w.field("ph", "X");
      w.field("dur", span->effective_end(latest) - span->start);
    }
    write_args(w, *span);
    w.end_object();
  }

  // Message edges as flow event pairs ("s" on the sender slice, "f" with
  // bp:"e" binding to the enclosing slice at the receiver) — Perfetto draws
  // these as the message arrows of the paper's figures.
  for (const Flow& flow : tracer.flows()) {
    w.begin_object();
    w.field("name", flow.type).field("cat", "net").field("ph", "s");
    w.field("id", static_cast<std::int64_t>(flow.id));
    w.field("pid", 0).field("tid", static_cast<std::int64_t>(flow.from));
    w.field("ts", flow.sent);
    w.key("args").begin_object();
    if (flow.trace != 0) w.field("trace", static_cast<std::int64_t>(flow.trace));
    w.field("lamport", flow.lamport_send);
    w.end_object();
    w.end_object();

    w.begin_object();
    w.field("name", flow.type).field("cat", "net").field("ph", "f").field("bp", "e");
    w.field("id", static_cast<std::int64_t>(flow.id));
    w.field("pid", 0).field("tid", static_cast<std::int64_t>(flow.to));
    w.field("ts", flow.recv);
    w.key("args").begin_object();
    if (flow.trace != 0) w.field("trace", static_cast<std::int64_t>(flow.trace));
    w.field("lamport", flow.lamport_recv);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
}

bool write_chrome_trace_file(const Tracer& tracer, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    util::log_error("trace export: cannot open ", path);
    return false;
  }
  write_chrome_trace(tracer, os);
  os << '\n';
  return os.good();
}

std::optional<ChromeTrace> read_chrome_trace(std::string_view text) {
  const auto doc = json_parse(text);
  if (!doc.has_value()) return std::nullopt;
  const JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is(JsonValue::Type::Array)) return std::nullopt;
  std::optional<ChromeTrace> out(std::in_place);
  std::map<std::int64_t, Flow> pending;  // flow starts awaiting their finish
  for (const JsonValue& ev : events->array) {
    if (!ev.is(JsonValue::Type::Object)) return std::nullopt;
    const std::string ph = string_of(ev.find("ph"));
    if (ph != "X" && ph != "i" && ph != "s" && ph != "f") continue;  // "M" metadata &c.
    const JsonValue* args = ev.find("args");
    std::int64_t node = 0;
    std::int64_t ts = 0;
    std::int64_t trace = 0;
    if (!read_int(&ev, "tid", kMinNode, kMaxNode, true, node) ||
        !read_int(&ev, "ts", 0, kMaxExact, true, ts) ||
        !read_int(args, "trace", 0, kMaxExact, false, trace)) {
      return std::nullopt;
    }
    std::string name = string_of(ev.find("name"));

    if (ph == "X" || ph == "i") {
      std::int64_t dur = 0;
      if (ph == "X" && !read_int(&ev, "dur", 0, kMaxExact, true, dur)) return std::nullopt;
      std::string request;
      Attrs attrs;
      if (args != nullptr) {
        for (const auto& [key, value] : args->object) {
          if (key == "request") {
            request = string_of(&value);
          } else if (key != "trace" && value.is(JsonValue::Type::String)) {
            attrs.emplace_back(key, value.str);
          }
        }
      }
      const ContextScope scope(out->tracer,
                               TraceContext{.trace_id = static_cast<std::uint64_t>(trace)});
      if (ph == "X") {
        out->tracer.record(static_cast<NodeId>(node), std::move(name), ts, ts + dur,
                           std::move(request), std::move(attrs));
      } else {
        out->tracer.instant(static_cast<NodeId>(node), std::move(name), ts, std::move(request),
                            std::move(attrs));
      }
      continue;
    }

    std::int64_t id = 0;
    std::int64_t lamport = 0;
    if (!read_int(&ev, "id", 0, kMaxExact, true, id) ||
        !read_int(args, "lamport", 0, kMaxExact, false, lamport)) {
      return std::nullopt;
    }
    if (ph == "s") {
      pending[id] = Flow{.trace = static_cast<std::uint64_t>(trace),
                         .from = static_cast<NodeId>(node),
                         .sent = ts,
                         .lamport_send = lamport,
                         .type = *out->names.insert(std::move(name)).first};
      continue;
    }
    const auto it = pending.find(id);
    if (it == pending.end()) continue;  // finish without start: drop
    Flow flow = it->second;
    pending.erase(it);
    flow.to = static_cast<NodeId>(node);
    flow.recv = ts;
    flow.lamport_recv = lamport;
    out->tracer.flow(flow);
  }
  return out;
}

}  // namespace repli::obs

#include "sim/trace.hh"

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>

#include "util/assert.hh"

namespace repli::sim {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::Request: return "Request";
    case Phase::ServerCoord: return "Server Coordination";
    case Phase::Execution: return "Execution";
    case Phase::AgreementCoord: return "Agreement Coordination";
    case Phase::Response: return "Response";
  }
  util::fail("phase_name: bad phase");
}

std::string_view phase_abbrev(Phase p) {
  switch (p) {
    case Phase::Request: return "RE";
    case Phase::ServerCoord: return "SC";
    case Phase::Execution: return "EX";
    case Phase::AgreementCoord: return "AC";
    case Phase::Response: return "END";
  }
  util::fail("phase_abbrev: bad phase");
}

std::optional<Phase> phase_from_abbrev(std::string_view abbrev) {
  for (const Phase p : {Phase::Request, Phase::ServerCoord, Phase::Execution,
                        Phase::AgreementCoord, Phase::Response}) {
    if (phase_abbrev(p) == abbrev) return p;
  }
  return std::nullopt;
}

obs::SpanId Trace::phase(std::string request, NodeId node, Phase phase, Time start, Time end) {
  util::ensure(end >= start, "Trace::phase: end before start");
  if (phase_hook_) phase_hook_(request, node, phase, start, end);
  return tracer_.record(node, "core/" + std::string(phase_abbrev(phase)), start, end,
                        std::move(request));
}

void Trace::message(const MessageEvent& ev) { messages_.push_back(ev); }

namespace {

/// The phase a "core/<abbrev>" span records; nullopt for any other span
/// (other core/ spans, e.g. sub-phases, are not phases).
std::optional<Phase> phase_of(const obs::Span& span) {
  constexpr std::string_view kPrefix = "core/";
  if (span.name.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  return phase_from_abbrev(std::string_view(span.name).substr(kPrefix.size()));
}

}  // namespace

std::vector<PhaseEvent> phases(const obs::Tracer& tracer) {
  std::vector<PhaseEvent> out;
  for (const auto& span : tracer.spans()) {
    if (const auto phase = phase_of(span)) {
      out.push_back(PhaseEvent{span.request, span.node, *phase, span.start, span.end});
    }
  }
  return out;
}

std::vector<PhaseEvent> phases_for(const obs::Tracer& tracer, const std::string& request) {
  std::vector<PhaseEvent> out;
  for (const auto& span : tracer.spans()) {
    if (span.request != request) continue;
    if (const auto phase = phase_of(span)) {
      out.push_back(PhaseEvent{span.request, span.node, *phase, span.start, span.end});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const PhaseEvent& a, const PhaseEvent& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.node < b.node;
  });
  return out;
}

std::vector<Phase> pattern(const obs::Tracer& tracer, const std::string& request) {
  // Order phases by the earliest time any node entered them, then merge
  // consecutive duplicates: concurrent occurrences of the same phase on
  // several replicas are one step of the functional model.
  std::map<Phase, Time> first_start;
  for (const auto& ev : phases_for(tracer, request)) {
    auto [it, inserted] = first_start.emplace(ev.phase, ev.start);
    if (!inserted) it->second = std::min(it->second, ev.start);
  }
  std::vector<std::pair<Time, Phase>> ordered;
  ordered.reserve(first_start.size());
  for (const auto& [phase, t] : first_start) ordered.emplace_back(t, phase);
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return static_cast<int>(a.second) < static_cast<int>(b.second);
  });
  std::vector<Phase> out;
  for (const auto& [t, phase] : ordered) out.push_back(phase);
  return out;
}

std::vector<std::string> requests(const obs::Tracer& tracer) {
  std::vector<std::string> out;
  std::set<std::string_view> seen;
  for (const auto& span : tracer.spans()) {
    if (phase_of(span).has_value() && seen.insert(span.request).second) {
      out.push_back(span.request);
    }
  }
  return out;
}

void write_timeline(const obs::Tracer& tracer, const std::string& request,
                    const std::function<std::string(NodeId)>& node_label, std::ostream& os) {
  const auto events = phases_for(tracer, request);
  if (events.empty()) {
    os << "  (no phase events recorded)\n";
    return;
  }
  Time t_min = events.front().start;
  Time t_max = t_min;
  for (const auto& ev : events) {
    t_min = std::min(t_min, ev.start);
    t_max = std::max(t_max, ev.end);
  }
  const double span = std::max<double>(1.0, static_cast<double>(t_max - t_min));
  constexpr int kCols = 60;

  std::map<NodeId, std::string> rows;
  for (const auto& ev : events) {
    auto& row = rows.try_emplace(ev.node, std::string(kCols + 1, '.')).first->second;
    const int a = static_cast<int>(static_cast<double>(ev.start - t_min) / span * kCols);
    const int b =
        std::max(a, static_cast<int>(static_cast<double>(ev.end - t_min) / span * kCols));
    const auto abbrev = phase_abbrev(ev.phase);
    for (int i = a; i <= b && i <= kCols; ++i) {
      row[static_cast<std::size_t>(i)] =
          abbrev[static_cast<std::size_t>((i - a) % static_cast<int>(abbrev.size()))];
    }
  }
  os << "  timeline (" << (t_max - t_min) << "us total, request " << request << ")\n";
  for (const auto& [node, row] : rows) {
    os << "    " << std::left << std::setw(18) << node_label(node) << " |" << row << "|\n";
  }
  os << "    legend: RE request  SC server-coordination  EX execution  "
        "AC agreement-coordination  END response\n";
}

std::string pattern_to_string(const std::vector<Phase>& pattern) {
  std::string out;
  for (const Phase p : pattern) {
    if (!out.empty()) out += ' ';
    out += phase_abbrev(p);
  }
  return out;
}

}  // namespace repli::sim

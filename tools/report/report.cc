#include "tools/report/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "core/technique.hh"
#include "obs/export_chrome.hh"
#include "obs/profile.hh"
#include "sim/trace.hh"

namespace repli::tools {

namespace {

using obs::JsonValue;

std::string str_or(const JsonValue* v, std::string def = "") {
  return v != nullptr && v->is(JsonValue::Type::String) ? v->str : std::move(def);
}

double num_or(const JsonValue* v, double def = 0) {
  return v != nullptr && v->is(JsonValue::Type::Number) ? v->number : def;
}

std::string label_of(const JsonValue& line, std::string_view key) {
  const auto* labels = line.find("labels");
  return labels != nullptr ? str_or(labels->find(key)) : "";
}

/// Bench trace tags are "<technique-name-sanitized>-<seq>"; map back to the
/// technique by longest sanitized-name prefix match.
const core::TechniqueInfo* technique_for_tag(const std::string& tag) {
  const core::TechniqueInfo* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& info : core::all_techniques()) {
    std::string sanitized(info.name);
    for (auto& ch : sanitized) {
      if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '-';
    }
    const bool matches =
        tag == sanitized ||
        (tag.size() > sanitized.size() && tag.rfind(sanitized + "-", 0) == 0);
    if (matches && sanitized.size() > best_len) {
      best = &info;
      best_len = sanitized.size();
    }
  }
  return best;
}

const core::TechniqueInfo* technique_for_name(const std::string& name) {
  for (const auto& info : core::all_techniques()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::string fmt(double v, int precision = 1) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string read_file_error;  // last I/O failure, for the CLI's diagnostics

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    read_file_error = "cannot open " + path.string();
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    read_file_error = "read failed for " + path.string();
    return std::nullopt;
  }
  return buf.str();
}

}  // namespace

std::optional<TraceData> parse_chrome_trace(std::string_view text, std::string tag) {
  auto read = obs::read_chrome_trace(text);
  if (!read.has_value()) return std::nullopt;
  return TraceData{std::move(tag), std::move(read->tracer), std::move(read->names)};
}

std::optional<StatsData> parse_stats_ndjson(std::string_view text, std::string tag) {
  StatsData out;
  out.tag = std::move(tag);
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const auto line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto value = obs::json_parse(line);
    if (!value.has_value() || !value->is(JsonValue::Type::Object)) return std::nullopt;
    out.metrics.push_back(std::move(*value));
  }
  return out;
}

std::optional<BenchData> parse_bench_json(std::string_view text, std::string name) {
  auto doc = obs::json_parse(text);
  if (!doc.has_value() || !doc->is(JsonValue::Type::Object)) return std::nullopt;
  BenchData out;
  out.name = std::move(name);
  if (out.name.empty()) out.name = str_or(doc->find("bench"), "(unnamed)");
  if (const auto* prov = doc->find("provenance"); prov != nullptr) {
    out.git_sha = str_or(prov->find("git_sha"), "unknown");
  } else {
    out.git_sha = "unknown";  // schema v1 reports predate provenance
  }
  out.doc = std::move(*doc);
  return out;
}

std::optional<ProfData> parse_prof_json(std::string_view text, std::string name) {
  auto doc = obs::json_parse(text);
  if (!doc.has_value() || !doc->is(JsonValue::Type::Object)) return std::nullopt;
  if (doc->find("centers") == nullptr) return std::nullopt;  // not a profiler report
  ProfData out;
  out.name = std::move(name);
  if (out.name.empty()) out.name = str_or(doc->find("prof"), "(unnamed)");
  if (const auto* prov = doc->find("provenance"); prov != nullptr) {
    out.git_sha = str_or(prov->find("git_sha"), "unknown");
  } else {
    out.git_sha = "unknown";
  }
  out.doc = std::move(*doc);
  return out;
}

std::optional<CritData> parse_crit_json(std::string_view text, std::string name) {
  auto doc = obs::json_parse(text);
  if (!doc.has_value() || !doc->is(JsonValue::Type::Object)) return std::nullopt;
  const auto* summary = doc->find("summary");
  if (summary == nullptr || !summary->is(JsonValue::Type::Object)) return std::nullopt;
  // `txns` is optional (a baseline keeps only the summary), but not malformed.
  const auto* txns = doc->find("txns");
  if (txns != nullptr && !txns->is(JsonValue::Type::Array)) return std::nullopt;
  CritData out;
  out.name = std::move(name);
  if (out.name.empty()) out.name = str_or(doc->find("crit"), "(unnamed)");
  out.doc = std::move(*doc);
  return out;
}

namespace {

void write_trace_section(const TraceData& trace, std::ostream& os) {
  os << "### `" << (trace.tag.empty() ? "(trace)" : trace.tag) << "`\n\n";
  const auto* info = technique_for_tag(trace.tag);
  if (info != nullptr) {
    os << "- technique: **" << info->name << "** (" << info->figure << "), paper pattern `"
       << info->paper_pattern << "`\n";
  }

  // Causal-trace summary: distinct trace ids, and how many tie >= 3 nodes
  // together (the cross-node causality the wire context exists for).
  std::map<std::uint64_t, std::set<obs::NodeId>> trace_node_sets;
  for (const auto& span : trace.tracer.spans()) {
    if (span.trace != 0) trace_node_sets[span.trace].insert(span.node);
  }
  for (const auto& flow : trace.tracer.flows()) {
    if (flow.trace != 0) {
      trace_node_sets[flow.trace].insert(flow.from);
      trace_node_sets[flow.trace].insert(flow.to);
    }
  }
  std::size_t wide = 0;
  for (const auto& [id, nodes] : trace_node_sets) {
    if (nodes.size() >= 3) ++wide;
  }
  const auto requests = sim::requests(trace.tracer);
  os << "- requests traced: " << requests.size()
     << ", message flows: " << trace.tracer.flows().size()
     << ", causal traces: " << trace_node_sets.size() << " (" << wide
     << " spanning >= 3 nodes)\n";

  if (requests.empty()) {
    os << "- no phase spans recorded\n\n";
    return;
  }
  // Pattern census over every request. The paper's figures depict update
  // transactions; reads legitimately measure shorter patterns (no AC under
  // lazy schemes, for one), so the verdict uses a representative request —
  // the first whose pattern reproduces the figure, if any does.
  std::vector<std::string> patterns;
  patterns.reserve(requests.size());
  std::map<std::string, std::size_t> census;
  for (const auto& r : requests) {
    patterns.push_back(sim::pattern_to_string(sim::pattern(trace.tracer, r)));
    ++census[patterns.back()];
  }
  os << "- measured patterns: ";
  bool first = true;
  for (const auto& [pattern, n] : census) {
    os << (first ? "" : ", ") << "`" << pattern << "` x" << n;
    first = false;
  }
  os << "\n";
  std::size_t rep = 0;
  if (info != nullptr) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i] == info->paper_pattern) {
        rep = i;
        break;
      }
    }
  }
  const auto& request = requests[rep];
  const auto& measured = patterns[rep];
  os << "- request `" << request << "`: measured pattern `" << measured << "`";
  if (info != nullptr) {
    os << (measured == info->paper_pattern ? " — matches the paper figure"
                                           : " — DIFFERS from the paper figure");
  }
  os << "\n\n```\n";
  sim::write_timeline(
      trace.tracer, request,
      [](sim::NodeId node) { return "node " + std::to_string(node); }, os);
  os << "```\n\n";
}

void write_health_section(const StatsData& stats, std::ostream& os) {
  os << "### `" << (stats.tag.empty() ? "(run)" : stats.tag) << "`\n\n";

  // Staleness: one histogram per node for version lag and for age.
  struct NodeStaleness {
    const JsonValue* versions = nullptr;
    const JsonValue* age = nullptr;
  };
  std::map<std::string, NodeStaleness> staleness;
  const JsonValue* divergence_window_us = nullptr;
  const JsonValue* failover_us = nullptr;
  double divergence_windows = 0;
  std::map<std::string, double> aborts;
  for (const auto& line : stats.metrics) {
    const auto metric = str_or(line.find("metric"));
    if (metric == "monitor.staleness_versions") {
      staleness[label_of(line, "node")].versions = &line;
    } else if (metric == "monitor.staleness_age_us") {
      staleness[label_of(line, "node")].age = &line;
    } else if (metric == "monitor.divergence_window_us") {
      divergence_window_us = &line;
    } else if (metric == "monitor.divergence_windows") {
      divergence_windows = num_or(line.find("value"));
    } else if (metric == "monitor.failover_us") {
      failover_us = &line;
    } else if (metric == "monitor.aborts") {
      aborts[label_of(line, "cause")] += num_or(line.find("value"));
    }
  }

  if (!staleness.empty()) {
    os << "**Staleness** (committed-version lag behind the freshest replica)\n\n";
    os << "| node | samples | p95 lag (versions) | max lag | p95 age (ms) |\n";
    os << "|---|---|---|---|---|\n";
    for (const auto& [node, ns] : staleness) {
      os << "| " << node << " | "
         << (ns.versions != nullptr ? fmt(num_or(ns.versions->find("count")), 0) : "0") << " | "
         << (ns.versions != nullptr ? fmt(num_or(ns.versions->find("p95"))) : "-") << " | "
         << (ns.versions != nullptr ? fmt(num_or(ns.versions->find("max"))) : "-") << " | "
         << (ns.age != nullptr ? fmt(num_or(ns.age->find("p95")) / 1000.0, 2) : "-") << " |\n";
    }
    os << "\n";
  } else {
    os << "**Staleness**: no samples (health monitor disabled for this run)\n\n";
  }

  os << "**Divergence**: " << fmt(divergence_windows, 0) << " window(s)";
  if (divergence_window_us != nullptr && num_or(divergence_window_us->find("count")) > 0) {
    os << ", mean " << fmt(num_or(divergence_window_us->find("mean")) / 1000.0, 2)
       << " ms, max " << fmt(num_or(divergence_window_us->find("max")) / 1000.0, 2) << " ms";
  }
  os << "\n\n";

  if (!aborts.empty()) {
    os << "**Aborts by cause**\n\n| cause | count |\n|---|---|\n";
    for (const auto& [cause, count] : aborts) {
      os << "| " << cause << " | " << fmt(count, 0) << " |\n";
    }
    os << "\n";
  } else {
    os << "**Aborts**: none recorded\n\n";
  }

  if (failover_us != nullptr && num_or(failover_us->find("count")) > 0) {
    os << "**Failover**: " << fmt(num_or(failover_us->find("count")), 0)
       << " completed timeline(s), suspicion -> first commit mean "
       << fmt(num_or(failover_us->find("mean")) / 1000.0, 2) << " ms, max "
       << fmt(num_or(failover_us->find("max")) / 1000.0, 2) << " ms\n\n";
  } else {
    os << "**Failover**: none observed\n\n";
  }
}

struct BenchRowView {
  std::string bench;
  std::string technique;
  std::string config;
  double replicas = 0;
  double seed = 0;
  double throughput = 0;
  double p95 = 0;
  double msgs_per_op = 0;
  bool converged = false;
};

std::vector<BenchRowView> bench_rows(const BenchData& bench) {
  std::vector<BenchRowView> out;
  const auto* rows = bench.doc.find("rows");
  if (rows == nullptr || !rows->is(JsonValue::Type::Array)) return out;
  for (const auto& row : rows->array) {
    BenchRowView v;
    v.bench = bench.name;
    v.technique = str_or(row.find("technique"));
    v.config = str_or(row.find("technique_config"));
    v.replicas = num_or(row.find("replicas"));
    v.seed = num_or(row.find("seed"));
    v.throughput = num_or(row.find("throughput_ops_per_s"));
    if (const auto* lat = row.find("latency_us"); lat != nullptr) {
      v.p95 = num_or(lat->find("p95"));
    }
    v.msgs_per_op = num_or(row.find("msgs_per_op"));
    if (const auto* c = row.find("converged"); c != nullptr) v.converged = c->boolean;
    out.push_back(std::move(v));
  }
  return out;
}

void write_bench_sections(const std::vector<BenchData>& benches, std::ostream& os) {
  os << "## Bench results\n\n";
  os << "| bench | technique | config | replicas | seed | throughput (ops/s) | p95 (us) | "
        "msgs/op | converged |\n";
  os << "|---|---|---|---|---|---|---|---|---|\n";
  std::vector<BenchRowView> all;
  for (const auto& bench : benches) {
    for (auto& row : bench_rows(bench)) all.push_back(std::move(row));
  }
  for (const auto& row : all) {
    os << "| " << row.bench << " | " << row.technique << " | "
       << (row.config.empty() ? "-" : "`" + row.config + "`") << " | " << fmt(row.replicas, 0)
       << " | " << fmt(row.seed, 0) << " | " << fmt(row.throughput, 0) << " | "
       << fmt(row.p95, 0) << " | " << fmt(row.msgs_per_op, 1) << " | "
       << (row.converged ? "yes" : "no") << " |\n";
  }
  os << "\n";

  if (benches.size() < 2) return;
  // Cross-run comparison: for techniques measured by more than one bench,
  // show the throughput/latency spread so regressions stand out.
  std::map<std::string, std::vector<const BenchRowView*>> by_technique;
  for (const auto& row : all) by_technique[row.technique].push_back(&row);
  bool any = false;
  std::ostringstream cmp;
  cmp << "## Cross-run comparison\n\n";
  cmp << "| technique | paper pattern | runs | throughput min..max (ops/s) | "
         "p95 min..max (us) |\n";
  cmp << "|---|---|---|---|---|\n";
  for (const auto& [technique, rows] : by_technique) {
    if (rows.size() < 2) continue;
    any = true;
    double tp_min = rows.front()->throughput, tp_max = tp_min;
    double p95_min = rows.front()->p95, p95_max = p95_min;
    for (const auto* row : rows) {
      tp_min = std::min(tp_min, row->throughput);
      tp_max = std::max(tp_max, row->throughput);
      p95_min = std::min(p95_min, row->p95);
      p95_max = std::max(p95_max, row->p95);
    }
    const auto* info = technique_for_name(technique);
    cmp << "| " << technique << " | `" << (info != nullptr ? info->paper_pattern : "?")
        << "` | " << rows.size() << " | " << fmt(tp_min, 0) << " .. " << fmt(tp_max, 0)
        << " | " << fmt(p95_min, 0) << " .. " << fmt(p95_max, 0) << " |\n";
  }
  if (any) os << cmp.str() << "\n";
}

/// Batching comparison: rows carrying a batch_max_ops field (the
/// perf_batching sweep) grouped as technique x batch size, with the traffic
/// reduction relative to the unbatched (batch_max_ops=1) baseline.
void write_batching_section(const std::vector<BenchData>& benches, std::ostream& os) {
  struct Cell {
    double msgs_per_op = 0;
    double throughput = 0;
    double p50 = 0;
  };
  // (technique, replicas) -> batch_max_ops -> best-known cell.
  std::map<std::pair<std::string, int>, std::map<int, Cell>> grid;
  for (const auto& bench : benches) {
    const auto* rows = bench.doc.find("rows");
    if (rows == nullptr || !rows->is(JsonValue::Type::Array)) continue;
    for (const auto& row : rows->array) {
      const auto* batch = row.find("batch_max_ops");
      if (batch == nullptr || !batch->is(JsonValue::Type::Number)) continue;
      Cell cell;
      cell.msgs_per_op = num_or(row.find("msgs_per_op"));
      cell.throughput = num_or(row.find("throughput_ops_per_s"));
      if (const auto* lat = row.find("latency_us"); lat != nullptr) {
        cell.p50 = num_or(lat->find("p50"));
      }
      grid[{str_or(row.find("technique")), static_cast<int>(num_or(row.find("replicas")))}]
          [static_cast<int>(batch->number)] = cell;
    }
  }
  if (grid.empty()) return;

  os << "## Batching comparison\n\n";
  os << "Rows from sweeps that vary `batch_max_ops`; reduction is unbatched msgs/op "
        "divided by this row's msgs/op (same technique and replica count).\n\n";
  os << "| technique | replicas | batch_max_ops | msgs/op | reduction | throughput (ops/s) | "
        "p50 (us) |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& [key, cells] : grid) {
    const auto baseline = cells.find(1);
    for (const auto& [batch, cell] : cells) {
      os << "| " << key.first << " | " << key.second << " | " << batch << " | "
         << fmt(cell.msgs_per_op, 1) << " | ";
      if (baseline != cells.end() && cell.msgs_per_op > 0) {
        os << fmt(baseline->second.msgs_per_op / cell.msgs_per_op, 2) << "x";
      } else {
        os << "-";
      }
      os << " | " << fmt(cell.throughput, 0) << " | " << fmt(cell.p50, 0) << " |\n";
    }
  }
  os << "\n";
}

// -- latency waterfalls ------------------------------------------------------

/// What the waterfall prints where a summary-only CRIT file (a baseline)
/// lacks the per-transaction data a section needs.
constexpr const char* kNeedsTracedRun =
    "not in a summary-only CRIT file; they need a traced run (REPLI_TRACE), whose CRIT "
    "file keeps per-transaction data";

struct CritSegView {
  std::string kind;
  double txns_touched = 0;
  double p50 = 0, p95 = 0, p99 = 0, mean = 0, max = 0;
};

struct CritView {
  double txns = 0, total_us = 0, attributed_us = 0, coverage = 0;
  bool per_txn = false;  // the file carries `txns` (a summary-only baseline does not)
  double p50_total = 0, p99_total = 0;
  std::vector<CritSegView> segments;  // artifact order (taxonomy order)
};

/// Nearest-rank percentile, matching obs::critpath's rule.
double rank_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

CritView crit_view(const CritData& crit) {
  CritView v;
  const auto* sum = crit.doc.find("summary");
  if (sum == nullptr) return v;
  v.txns = num_or(sum->find("txns"));
  v.total_us = num_or(sum->find("total_us"));
  v.attributed_us = num_or(sum->find("attributed_us"));
  v.coverage = num_or(sum->find("coverage"));
  if (const auto* segs = sum->find("segments");
      segs != nullptr && segs->is(JsonValue::Type::Array)) {
    for (const auto& s : segs->array) {
      CritSegView seg;
      seg.kind = str_or(s.find("kind"), "?");
      seg.txns_touched = num_or(s.find("txns_touched"));
      seg.p50 = num_or(s.find("p50_us"));
      seg.p95 = num_or(s.find("p95_us"));
      seg.p99 = num_or(s.find("p99_us"));
      seg.mean = num_or(s.find("mean_us"));
      seg.max = num_or(s.find("max_us"));
      v.segments.push_back(std::move(seg));
    }
  }
  std::vector<double> totals;
  if (const auto* txns = crit.doc.find("txns"); txns != nullptr) {
    v.per_txn = true;
    for (const auto& t : txns->array) {
      const auto* ok = t.find("ok");
      if (ok != nullptr && ok->is(JsonValue::Type::Bool) && !ok->boolean) continue;
      totals.push_back(num_or(t.find("total_us")));
    }
  }
  v.p50_total = rank_percentile(totals, 0.50);
  v.p99_total = rank_percentile(totals, 0.99);
  return v;
}

void write_waterfall_section(const CritData& crit, std::ostream& os) {
  const CritView v = crit_view(crit);
  os << "### `" << crit.name << "`\n\n";
  if (const auto* info = technique_for_tag(crit.name); info != nullptr) {
    os << "- technique: **" << info->name << "** (" << info->figure << ")\n";
  }
  os << "- committed txns: " << fmt(v.txns, 0) << ", coverage " << fmt(v.coverage * 100, 1)
     << "% (" << fmt(v.attributed_us, 0) << " of " << fmt(v.total_us, 0)
     << " us attributed)\n";
  if (v.per_txn) {
    os << "- end-to-end latency: p50 " << fmt(v.p50_total, 0) << " us, p99 "
       << fmt(v.p99_total, 0) << " us\n\n";
  } else {
    os << "- end-to-end latency and slowest transactions: " << kNeedsTracedRun << "\n\n";
  }
  if (v.txns <= 0) {
    os << "(no committed transactions)\n\n";
    return;
  }

  // The waterfall: each segment's share of the mean end-to-end latency.
  // Per-kind means are per-txn means over ALL committed txns (0 when a txn
  // never touches the kind), so they sum to the mean total.
  double denom = 0;
  for (const auto& seg : v.segments) denom += seg.mean;
  if (denom <= 0) denom = 1;
  constexpr int kBar = 40;
  os << "```\n";
  for (const auto& seg : v.segments) {
    if (seg.mean <= 0) continue;
    const double share = seg.mean / denom;
    const int width = std::min(kBar, static_cast<int>(share * kBar + 0.5));
    os << "  " << std::left << std::setw(14) << seg.kind << std::right << " |"
       << std::string(static_cast<std::size_t>(width), '#')
       << std::string(static_cast<std::size_t>(kBar - width), ' ') << "| " << std::setw(5)
       << fmt(share * 100, 1) << "%  mean " << fmt(seg.mean, 0) << "us\n";
  }
  os << "```\n\n";

  os << "| segment | txns | p50 (us) | p95 (us) | p99 (us) | mean (us) | max (us) |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& seg : v.segments) {
    if (seg.txns_touched <= 0) continue;
    os << "| " << seg.kind << " | " << fmt(seg.txns_touched, 0) << " | " << fmt(seg.p50, 0)
       << " | " << fmt(seg.p95, 0) << " | " << fmt(seg.p99, 0) << " | " << fmt(seg.mean, 1)
       << " | " << fmt(seg.max, 0) << " |\n";
  }
  os << "\n";

  // Tail differential: which segments explain p99 - p50.
  const auto* summary = crit.doc.find("summary");
  if (const auto* tail = summary != nullptr ? summary->find("tail") : nullptr;
      tail != nullptr && tail->is(JsonValue::Type::Array) && !tail->array.empty()) {
    std::ostringstream rows;
    for (const auto& tc : tail->array) {
      if (num_or(tc.find("delta_us")) <= 0) continue;
      rows << "| " << str_or(tc.find("kind"), "?") << " | " << fmt(num_or(tc.find("p50_us")), 0)
           << " | " << fmt(num_or(tc.find("p99_us")), 0) << " | "
           << fmt(num_or(tc.find("delta_us")), 0) << " |\n";
    }
    if (!rows.str().empty()) {
      os << "**Tail differential** (per-segment p99 minus p50 — what makes the slow "
            "tail slow)\n\n";
      os << "| segment | p50 (us) | p99 (us) | delta (us) |\n|---|---|---|---|\n"
         << rows.str() << "\n";
    }
  }

  // The slowest committed transactions, with their full critical paths.
  const auto* txns = crit.doc.find("txns");
  std::vector<const JsonValue*> slowest;
  if (txns != nullptr) {
    for (const auto& t : txns->array) {
      const auto* ok = t.find("ok");
      if (ok != nullptr && ok->is(JsonValue::Type::Bool) && !ok->boolean) continue;
      slowest.push_back(&t);
    }
  }
  std::stable_sort(slowest.begin(), slowest.end(), [](const JsonValue* a, const JsonValue* b) {
    return num_or(a->find("total_us")) > num_or(b->find("total_us"));
  });
  if (slowest.size() > 3) slowest.resize(3);
  if (!slowest.empty()) {
    os << "Slowest transactions:\n\n```\n";
    for (const JsonValue* t : slowest) {
      os << "  " << str_or(t->find("request"), "?") << "  " << fmt(num_or(t->find("total_us")), 0)
         << "us end to end, " << fmt(num_or(t->find("hops")), 0) << " hop(s)\n";
      if (const auto* segs = t->find("segments");
          segs != nullptr && segs->is(JsonValue::Type::Array)) {
        for (const auto& s : segs->array) {
          os << "    [" << std::setw(6) << fmt(num_or(s.find("start_us")), 0) << " +"
             << std::setw(5) << fmt(num_or(s.find("dur_us")), 0) << "us] node "
             << fmt(num_or(s.find("node")), 0) << "  " << str_or(s.find("kind"), "?");
          const auto detail = str_or(s.find("detail"));
          if (!detail.empty()) os << "  " << detail;
          os << "\n";
        }
      }
    }
    os << "```\n\n";
  }
}

void write_crit_comparison(const std::vector<CritData>& crits, std::ostream& os) {
  os << "### Cross-technique comparison\n\n";
  os << "| artifact | txns | coverage | p50 (us) | p99 (us) | dominant segment |\n";
  os << "|---|---|---|---|---|---|\n";
  bool summary_only = false;
  for (const auto& crit : crits) {
    const CritView v = crit_view(crit);
    summary_only = summary_only || !v.per_txn;
    double denom = 0;
    const CritSegView* top = nullptr;
    for (const auto& seg : v.segments) {
      denom += seg.mean;
      if (top == nullptr || seg.mean > top->mean) top = &seg;
    }
    os << "| " << crit.name << " | " << fmt(v.txns, 0) << " | " << fmt(v.coverage * 100, 1)
       << "% | ";
    if (v.per_txn) {
      os << fmt(v.p50_total, 0) << " | " << fmt(v.p99_total, 0) << " | ";
    } else {
      os << "- | - | ";
    }
    if (top != nullptr && top->mean > 0 && denom > 0) {
      os << top->kind << " (" << fmt(top->mean / denom * 100, 1) << "%)";
    } else {
      os << "-";
    }
    os << " |\n";
  }
  os << "\n";
  if (summary_only) os << "p50/p99 marked `-`: " << kNeedsTracedRun << ".\n\n";
}

void write_prof_section(const std::vector<ProfData>& profs, std::ostream& os) {
  os << "## Cost profile\n\n";
  os << "Per-cost-center self-time and heap activity from the scoped profiler "
        "(PROF_*.json). Wall-clock columns are machine-dependent; the alloc and "
        "call columns are deterministic per seed.\n\n";
  for (const auto& prof : profs) {
    const auto* centers = prof.doc.find("centers");
    if (centers == nullptr || !centers->is(JsonValue::Type::Array)) continue;
    os << "### " << prof.name << "\n\n";
    os << "| center | calls | self (ms) | total (ms) | allocs | alloc MB |";
    const bool per_op = num_or(prof.doc.find("ops")) > 0;
    if (per_op) os << " calls/op | allocs/op |";
    os << "\n|---|---|---|---|---|---|";
    if (per_op) os << "---|---|";
    os << "\n";
    for (const auto& row : centers->array) {
      os << "| " << str_or(row.find("center")) << " | " << fmt(num_or(row.find("calls")), 0)
         << " | " << fmt(num_or(row.find("self_ns")) / 1e6, 2) << " | "
         << fmt(num_or(row.find("total_ns")) / 1e6, 2) << " | "
         << fmt(num_or(row.find("allocs")), 0) << " | "
         << fmt(num_or(row.find("alloc_bytes")) / 1e6, 2) << " |";
      if (per_op) {
        os << " " << fmt(num_or(row.find("calls_per_op")), 2) << " | "
           << fmt(num_or(row.find("allocs_per_op")), 2) << " |";
      }
      os << "\n";
    }
    os << "\n";
  }
}

// -- perf-regression gate ----------------------------------------------------

/// One gated metric: where to find it in a row, which direction is worse,
/// and how much relative movement in the worse direction the gate accepts.
/// Thresholds are deliberately per-metric: simulated metrics (throughput,
/// latency, msgs/op) are deterministic per seed, so small windows suffice;
/// wall-clock ns metrics are machine- and load-dependent, so they get a
/// very loose window that still catches order-of-magnitude blowups.
struct GatedMetric {
  const char* path;    // "latency_us.p95" -> nested one level
  bool higher_better;  // regressions move the other way
  double tolerance;    // max relative degradation, e.g. 0.15 = 15%
};

constexpr GatedMetric kWorkloadGates[] = {
    {"throughput_ops_per_s", true, 0.15},
    {"ops_ok", true, 0.05},
    {"latency_us.mean", false, 0.25},
    {"latency_us.p95", false, 0.25},
    {"msgs_per_op", false, 0.10},
    {"bytes_per_op", false, 0.15},
};

constexpr GatedMetric kMicroGates[] = {
    {"allocs_per_op", false, 0.25},
    {"alloc_bytes_per_op", false, 0.25},
    {"ns_per_op", false, 3.0},  // wall clock: only catastrophic slowdowns
};

constexpr GatedMetric kProfGates[] = {
    {"calls_per_op", false, 0.25},
    {"allocs_per_op", false, 0.25},
    {"alloc_bytes_per_op", false, 0.25},
    {"self_ns_per_op", false, 3.0},  // wall clock: only catastrophic slowdowns
};

/// Resolves "a.b" one level deep into a row object.
const JsonValue* metric_at(const JsonValue& row, std::string_view path) {
  const auto dot = path.find('.');
  if (dot == std::string_view::npos) return row.find(path);
  const auto* nested = row.find(path.substr(0, dot));
  return nested != nullptr ? nested->find(path.substr(dot + 1)) : nullptr;
}

/// Workload-row identity: technique, config, seed, replicas, plus every
/// field that is not a known measurement — sweep parameters (write_ratio,
/// zipf_theta, batch_max_ops, ...) identify the row, whatever the bench
/// calls them. Future measurement fields added to RunStats must be listed
/// here or rows will stop matching across versions (loud, not wrong).
std::string workload_row_identity(const JsonValue& row) {
  static const std::set<std::string_view> kMeasurements = {
      "ops_attempted", "ops_ok",     "ops_failed",           "throughput_ops_per_s",
      "latency_us",    "msgs_per_op", "bytes_per_op",        "client_timeouts",
      "lazy_undone",   "certification_aborts", "mean_staleness_ms", "converged",
  };
  std::string id;
  for (const auto& [key, value] : row.object) {
    if (kMeasurements.count(key) > 0) continue;
    id += key;
    id += '=';
    if (value.is(JsonValue::Type::String)) {
      id += value.str;
    } else if (value.is(JsonValue::Type::Number)) {
      id += fmt(value.number, 6);
    } else if (value.is(JsonValue::Type::Bool)) {
      id += value.boolean ? "true" : "false";
    }
    id += ';';
  }
  return id;
}

/// Pretty row label for gate messages (identity minus the noise).
std::string workload_row_label(const JsonValue& row) {
  std::string label = str_or(row.find("technique"), "?");
  const auto* cfg = row.find("technique_config");
  if (cfg != nullptr && cfg->is(JsonValue::Type::String) && !cfg->str.empty()) {
    label += " " + cfg->str;
  }
  for (const char* key : {"write_ratio", "zipf_theta", "batch_max_ops", "seed"}) {
    if (const auto* v = row.find(key); v != nullptr && v->is(JsonValue::Type::Number)) {
      label += std::string(" ") + key + "=" + fmt(v->number, 2);
    }
  }
  return label;
}

void check_metrics(const JsonValue& base_row, const JsonValue* fresh_row,
                   const GatedMetric* gates, std::size_t gate_count,
                   const std::string& artifact, const std::string& row_label,
                   CheckResult& result) {
  if (fresh_row == nullptr) {
    result.regressions.push_back(
        {artifact, row_label, "(row)", 0, 0, "row present in baseline but missing from fresh run"});
    return;
  }
  for (std::size_t i = 0; i < gate_count; ++i) {
    const GatedMetric& gate = gates[i];
    const auto* base = metric_at(base_row, gate.path);
    const auto* fresh = metric_at(*fresh_row, gate.path);
    if (base == nullptr || !base->is(JsonValue::Type::Number)) continue;
    if (base->number <= 0) continue;  // nothing to regress from; ratios undefined
    ++result.compared;
    if (fresh == nullptr || !fresh->is(JsonValue::Type::Number)) {
      result.regressions.push_back({artifact, row_label, gate.path, base->number, 0,
                                    "metric missing from fresh run"});
      continue;
    }
    const double degradation = gate.higher_better
                                   ? (base->number - fresh->number) / base->number
                                   : (fresh->number - base->number) / base->number;
    if (degradation > gate.tolerance) {
      std::ostringstream msg;
      msg << (gate.higher_better ? "dropped " : "grew ") << fmt(degradation * 100, 1)
          << "% (tolerance " << fmt(gate.tolerance * 100, 0) << "%)";
      result.regressions.push_back(
          {artifact, row_label, gate.path, base->number, fresh->number, msg.str()});
    }
  }

  // converged is a hard invariant, not a threshold: once a configuration
  // converges in the baseline it must keep converging.
  const auto* base_conv = base_row.find("converged");
  const auto* fresh_conv = fresh_row->find("converged");
  if (base_conv != nullptr && base_conv->is(JsonValue::Type::Bool) && base_conv->boolean) {
    ++result.compared;
    if (fresh_conv == nullptr || !fresh_conv->boolean) {
      result.regressions.push_back(
          {artifact, row_label, "converged", 1, 0, "baseline converged, fresh run did not"});
    }
  }
}

/// Groups rows by identity; duplicate identities within one artifact are
/// matched positionally (k-th baseline occurrence vs k-th fresh one).
std::map<std::string, std::vector<const JsonValue*>> rows_by_identity(
    const JsonValue& doc, std::string (*identity)(const JsonValue&)) {
  std::map<std::string, std::vector<const JsonValue*>> out;
  const auto* rows = doc.find("rows");
  if (rows == nullptr || !rows->is(JsonValue::Type::Array)) return out;
  for (const auto& row : rows->array) out[identity(row)].push_back(&row);
  return out;
}

std::string micro_row_identity(const JsonValue& row) { return str_or(row.find("op"), "?"); }

void check_bench(const BenchData& base, const BenchData* fresh, CheckResult& result) {
  const std::string artifact = "BENCH_" + base.name;
  if (fresh == nullptr) {
    result.regressions.push_back(
        {artifact, "", "(artifact)", 0, 0, "baseline artifact missing from fresh run"});
    return;
  }
  const bool micro = [&] {
    const auto* m = base.doc.find("micro");
    return m != nullptr && m->is(JsonValue::Type::Bool) && m->boolean;
  }();
  const auto identity = micro ? micro_row_identity : workload_row_identity;
  const auto base_rows = rows_by_identity(base.doc, identity);
  const auto fresh_rows = rows_by_identity(fresh->doc, identity);
  for (const auto& [id, group] : base_rows) {
    const auto it = fresh_rows.find(id);
    for (std::size_t k = 0; k < group.size(); ++k) {
      const JsonValue* fresh_row =
          (it != fresh_rows.end() && k < it->second.size()) ? it->second[k] : nullptr;
      const std::string label = micro ? id : workload_row_label(*group[k]);
      if (micro) {
        check_metrics(*group[k], fresh_row, kMicroGates, std::size(kMicroGates), artifact,
                      label, result);
      } else {
        check_metrics(*group[k], fresh_row, kWorkloadGates, std::size(kWorkloadGates), artifact,
                      label, result);
      }
    }
  }
}

void check_prof(const ProfData& base, const ProfData* fresh, CheckResult& result) {
  const std::string artifact = "PROF_" + base.name;
  if (fresh == nullptr) {
    result.regressions.push_back(
        {artifact, "", "(artifact)", 0, 0, "baseline artifact missing from fresh run"});
    return;
  }
  std::map<std::string, const JsonValue*> fresh_centers;
  if (const auto* centers = fresh->doc.find("centers");
      centers != nullptr && centers->is(JsonValue::Type::Array)) {
    for (const auto& row : centers->array) fresh_centers[str_or(row.find("center"))] = &row;
  }
  const auto* base_centers = base.doc.find("centers");
  if (base_centers == nullptr || !base_centers->is(JsonValue::Type::Array)) return;
  for (const auto& row : base_centers->array) {
    // Centers the baseline never exercised gate nothing; per-op fields only
    // exist when the bench recorded a workload-op count.
    if (num_or(row.find("calls")) <= 0) continue;
    const std::string center = str_or(row.find("center"), "?");
    const auto it = fresh_centers.find(center);
    check_metrics(row, it == fresh_centers.end() ? nullptr : it->second, kProfGates,
                  std::size(kProfGates), artifact, center, result);
  }
}

/// Segment-level latency gates: per-kind critical-path percentiles from the
/// CRIT summary. Simulated time, deterministic per seed — windows stay
/// tight. These localize a latency regression to the causal segment that
/// grew, where the workload-level p95 gate only says "something got slower".
constexpr GatedMetric kCritSegmentGates[] = {
    {"p50_us", false, 0.25},
    {"p95_us", false, 0.25},
    {"p99_us", false, 0.35},
};

void check_crit(const CritData& base, const CritData* fresh, CheckResult& result) {
  const std::string artifact = "CRIT_" + base.name;
  if (fresh == nullptr) {
    result.regressions.push_back(
        {artifact, "", "(artifact)", 0, 0, "baseline artifact missing from fresh run"});
    return;
  }
  // Attribution coverage is a floor, not a ratio gate: the waterfall is only
  // trustworthy while nearly all commit latency stays attributed.
  const double base_cov = num_or(base.doc.find("summary")->find("coverage"));
  const double fresh_cov = num_or(fresh->doc.find("summary")->find("coverage"));
  if (base_cov > 0) {
    ++result.compared;
    if (fresh_cov < base_cov - 0.02) {
      result.regressions.push_back({artifact, "", "coverage", base_cov, fresh_cov,
                                    "attribution coverage dropped more than 2 points"});
    }
  }
  std::map<std::string, const JsonValue*> fresh_segs;
  if (const auto* segs = fresh->doc.find("summary")->find("segments");
      segs != nullptr && segs->is(JsonValue::Type::Array)) {
    for (const auto& row : segs->array) fresh_segs[str_or(row.find("kind"))] = &row;
  }
  const auto* base_segs = base.doc.find("summary")->find("segments");
  if (base_segs == nullptr || !base_segs->is(JsonValue::Type::Array)) return;
  for (const auto& row : base_segs->array) {
    // Segments the baseline never hit gate nothing (their percentiles are 0).
    if (num_or(row.find("txns_touched")) <= 0) continue;
    const std::string kind = str_or(row.find("kind"), "?");
    const auto it = fresh_segs.find(kind);
    check_metrics(row, it == fresh_segs.end() ? nullptr : it->second, kCritSegmentGates,
                  std::size(kCritSegmentGates), artifact, kind, result);
  }
}

}  // namespace

CheckResult check_against_baseline(const ReportInputs& baseline, const ReportInputs& fresh) {
  CheckResult result;
  for (const auto& base : baseline.benches) {
    const BenchData* match = nullptr;
    for (const auto& candidate : fresh.benches) {
      if (candidate.name == base.name) match = &candidate;
    }
    check_bench(base, match, result);
  }
  for (const auto& base : baseline.profs) {
    const ProfData* match = nullptr;
    for (const auto& candidate : fresh.profs) {
      if (candidate.name == base.name) match = &candidate;
    }
    check_prof(base, match, result);
  }
  for (const auto& base : baseline.crits) {
    const CritData* match = nullptr;
    for (const auto& candidate : fresh.crits) {
      if (candidate.name == base.name) match = &candidate;
    }
    check_crit(base, match, result);
  }
  return result;
}

void write_report(const ReportInputs& inputs, std::ostream& os) {
  os << "# replikit run report\n\n";
  os << "Inputs: " << inputs.traces.size() << " trace file(s), " << inputs.stats.size()
     << " metrics file(s), " << inputs.benches.size() << " bench report(s), "
     << inputs.profs.size() << " cost profile(s), " << inputs.crits.size()
     << " critical-path report(s).\n\n";

  if (!inputs.benches.empty()) {
    os << "## Provenance\n\n| bench | git sha | schema | rows |\n|---|---|---|---|\n";
    for (const auto& bench : inputs.benches) {
      const auto* rows = bench.doc.find("rows");
      os << "| " << bench.name << " | `" << bench.git_sha << "` | "
         << fmt(num_or(bench.doc.find("schema_version"), 1), 0) << " | "
         << (rows != nullptr && rows->is(JsonValue::Type::Array) ? rows->array.size() : 0)
         << " |\n";
    }
    os << "\n";
  }

  if (!inputs.traces.empty()) {
    os << "## Measured phase diagrams\n\n";
    os << "Regenerated from exported trace spans — these must reproduce the paper's "
          "figures from measurement, not from the paper's table.\n\n";
    for (const auto& trace : inputs.traces) write_trace_section(trace, os);
  }

  if (!inputs.stats.empty()) {
    os << "## Replication health\n\n";
    for (const auto& stats : inputs.stats) write_health_section(stats, os);
  }

  if (!inputs.benches.empty()) {
    write_bench_sections(inputs.benches, os);
    write_batching_section(inputs.benches, os);
  }

  if (!inputs.profs.empty()) write_prof_section(inputs.profs, os);

  if (!inputs.crits.empty()) {
    os << "## Latency waterfalls\n\n";
    os << "Per-transaction causal critical paths (CRIT_*.json): where each "
          "committed transaction's end-to-end latency actually went.\n\n";
    for (const auto& crit : inputs.crits) write_waterfall_section(crit, os);
    if (inputs.crits.size() >= 2) write_crit_comparison(inputs.crits, os);
  }
}

void write_waterfall(const std::vector<CritData>& crits, std::ostream& os) {
  os << "# replikit latency waterfalls\n\n";
  os << "Critical-path attribution: each committed transaction's end-to-end "
        "latency, cut into causal segments along its critical path. Bars show "
        "each segment's share of the mean commit latency; the tail tables show "
        "which segments make the p99 slow.\n\n";
  os << "Inputs: " << crits.size() << " critical-path report(s).\n\n";
  for (const auto& crit : crits) write_waterfall_section(crit, os);
  if (crits.size() >= 2) write_crit_comparison(crits, os);
}

namespace {

void usage(std::ostream& os) {
  os << "usage: replikit-report [-o OUT.md] <file-or-dir>...\n"
        "       replikit-report --check --baseline DIR [--alloc-budget CENTER=N]... "
        "<file-or-dir>...\n"
        "       replikit-report --rebaseline [--baseline DIR] <file-or-dir>...\n"
        "       replikit-report flame <TRACE_*.json> [-o OUT.folded]\n"
        "       replikit-report waterfall [-o OUT.md] <file-or-dir>...\n"
        "  Consumes TRACE_*.json (Chrome trace), STATS_*.ndjson (metrics),\n"
        "  BENCH_*.json (bench reports), PROF_*.json (cost profiles) and\n"
        "  CRIT_*.json (critical-path reports); directories are scanned for\n"
        "  all five. A truncated or malformed artifact is reported on stderr\n"
        "  and yields exit code 4 (the rest still report).\n"
        "  Default: writes a markdown run report to stdout (or OUT.md with -o).\n"
        "  --check: compares fresh BENCH/PROF artifacts against the baseline\n"
        "  directory with per-metric thresholds; exit 3 on regression.\n"
        "  --alloc-budget CENTER=N (repeatable, with --check): additionally\n"
        "  asserts the fresh PROF allocs/op for cost center CENTER is <= N —\n"
        "  an absolute ceiling, immune to baseline drift.\n"
        "  --rebaseline: validates fresh BENCH/PROF artifacts (parseable,\n"
        "  provenance-stamped) and CRIT artifacts (parseable) and installs them\n"
        "  as the committed baselines, CRIT trimmed to its summary (default\n"
        "  DIR: bench/baselines).\n"
        "  flame: recomputes folded flamegraph stacks from an exported trace.\n"
        "  waterfall: renders per-transaction latency waterfalls (ASCII\n"
        "  segment bars, tail differentials, slowest critical paths, and a\n"
        "  cross-technique table) from CRIT_*.json artifacts.\n";
}

/// "TRACE_foo-1.json" -> "foo-1" (the stem between prefix and extension).
std::string tag_of(const std::string& filename, std::string_view prefix,
                   std::string_view extension) {
  return filename.substr(prefix.size(),
                         filename.size() - prefix.size() - extension.size());
}

/// Expands files/directories into the regular files inside them, sorted
/// (directory iteration order is unspecified). Returns false on any
/// unreadable root; the good ones still land in `files`.
bool expand_roots(const std::vector<std::filesystem::path>& roots,
                  std::vector<std::filesystem::path>& files) {
  bool ok = true;
  for (const auto& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_directory(root, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      if (ec) {
        std::cerr << "replikit-report: cannot scan " << root << ": " << ec.message() << "\n";
        ok = false;
      }
    } else if (std::filesystem::exists(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "replikit-report: no such file or directory: " << root << "\n";
      ok = false;
    }
  }
  std::sort(files.begin(), files.end());
  return ok;
}

/// Parses every recognized artifact among `files` into `inputs`. Returns
/// false if any recognized file was unreadable or malformed; additionally
/// sets *malformed when a file was readable but truncated/corrupt, so
/// callers can distinguish "bad artifact" (exit 4) from plain I/O trouble.
bool collect_inputs(const std::vector<std::filesystem::path>& files, ReportInputs& inputs,
                    bool* malformed = nullptr) {
  bool ok = true;
  const auto corrupt = [&](const char* what, const std::filesystem::path& path) {
    std::cerr << "replikit-report: truncated or malformed " << what << ": "
              << path.string() << " (skipped)\n";
    ok = false;
    if (malformed != nullptr) *malformed = true;
  };
  for (const auto& path : files) {
    const auto filename = path.filename().string();
    const bool is_trace = filename.rfind("TRACE_", 0) == 0 && filename.ends_with(".json");
    const bool is_stats = filename.rfind("STATS_", 0) == 0 && filename.ends_with(".ndjson");
    const bool is_bench = filename.rfind("BENCH_", 0) == 0 && filename.ends_with(".json");
    const bool is_prof = filename.rfind("PROF_", 0) == 0 && filename.ends_with(".json");
    const bool is_crit = filename.rfind("CRIT_", 0) == 0 && filename.ends_with(".json");
    if (!is_trace && !is_stats && !is_bench && !is_prof && !is_crit) continue;  // unrelated
    const auto text = read_file(path);
    if (!text.has_value()) {
      std::cerr << "replikit-report: " << read_file_error << "\n";
      ok = false;
      continue;
    }
    if (is_trace) {
      auto trace = parse_chrome_trace(*text, tag_of(filename, "TRACE_", ".json"));
      if (!trace.has_value()) {
        corrupt("Chrome trace", path);
        continue;
      }
      inputs.traces.push_back(std::move(*trace));
    } else if (is_stats) {
      auto stats = parse_stats_ndjson(*text, tag_of(filename, "STATS_", ".ndjson"));
      if (!stats.has_value()) {
        corrupt("NDJSON metrics", path);
        continue;
      }
      inputs.stats.push_back(std::move(*stats));
    } else if (is_bench) {
      auto bench = parse_bench_json(*text, tag_of(filename, "BENCH_", ".json"));
      if (!bench.has_value()) {
        corrupt("bench report", path);
        continue;
      }
      inputs.benches.push_back(std::move(*bench));
    } else if (is_prof) {
      auto prof = parse_prof_json(*text, tag_of(filename, "PROF_", ".json"));
      if (!prof.has_value()) {
        corrupt("cost profile", path);
        continue;
      }
      inputs.profs.push_back(std::move(*prof));
    } else {
      auto crit = parse_crit_json(*text, tag_of(filename, "CRIT_", ".json"));
      if (!crit.has_value()) {
        corrupt("critical-path report", path);
        continue;
      }
      inputs.crits.push_back(std::move(*crit));
    }
  }
  return ok;
}

/// Writes `text` to OUT (or stdout when `out_path` is empty).
bool write_output(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::cout << text;
    return true;
  }
  std::ofstream out(out_path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "replikit-report: cannot write " << out_path << "\n";
    return false;
  }
  return true;
}

/// `replikit-report flame TRACE_x.json [-o out.folded]`.
int flame_main(const std::string& out_path, const std::vector<std::filesystem::path>& roots) {
  if (roots.size() != 1) {
    usage(std::cerr);
    return 1;
  }
  const auto text = read_file(roots.front());
  if (!text.has_value()) {
    std::cerr << "replikit-report: " << read_file_error << "\n";
    return 1;
  }
  const auto trace = parse_chrome_trace(*text, roots.front().filename().string());
  if (!trace.has_value()) {
    std::cerr << "replikit-report: malformed Chrome trace: " << roots.front() << "\n";
    return 1;
  }
  std::ostringstream folded;
  obs::write_folded(trace->tracer, folded);
  return write_output(out_path, folded.str()) ? 0 : 1;
}

/// `replikit-report waterfall <files-or-dirs...> [-o out.md]`.
int waterfall_main(const std::string& out_path,
                   const std::vector<std::filesystem::path>& roots) {
  std::vector<std::filesystem::path> files;
  bool ok = expand_roots(roots, files);
  ReportInputs inputs;
  bool malformed = false;
  ok = collect_inputs(files, inputs, &malformed) && ok;
  if (inputs.crits.empty()) {
    std::cerr << "replikit-report: no CRIT_*.json inputs found\n";
    return malformed ? 4 : (ok ? 2 : 1);
  }
  std::ostringstream doc;
  write_waterfall(inputs.crits, doc);
  if (!write_output(out_path, doc.str())) return 1;
  if (malformed) return 4;
  return ok ? 0 : 1;
}

/// Absolute allocs/op ceiling for one cost center (--alloc-budget).
struct AllocBudget {
  std::string center;
  double max_allocs_per_op = 0;
};

/// Parses "CENTER=N"; returns nullopt on malformed input.
std::optional<AllocBudget> parse_alloc_budget(std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  AllocBudget budget;
  budget.center = std::string(arg.substr(0, eq));
  const std::string num(arg.substr(eq + 1));
  char* end = nullptr;
  budget.max_allocs_per_op = std::strtod(num.c_str(), &end);
  if (end == num.c_str() || *end != '\0' || budget.max_allocs_per_op < 0) return std::nullopt;
  return budget;
}

/// Applies absolute allocs/op budgets to the fresh PROF artifacts. Unlike
/// the relative gates, a budget cannot be eroded by gradual baseline
/// refreshes — it pins the cost floor a PR claimed. A center named by a
/// budget but absent from every fresh profile is a failure (a silently
/// vacuous budget would be worse than none).
void check_alloc_budgets(const std::vector<AllocBudget>& budgets, const ReportInputs& fresh,
                         CheckResult& result) {
  for (const auto& budget : budgets) {
    bool found = false;
    for (const auto& prof : fresh.profs) {
      const auto* centers = prof.doc.find("centers");
      if (centers == nullptr || !centers->is(JsonValue::Type::Array)) continue;
      for (const auto& row : centers->array) {
        if (str_or(row.find("center")) != budget.center) continue;
        const auto* allocs = row.find("allocs_per_op");
        if (allocs == nullptr || !allocs->is(JsonValue::Type::Number)) continue;
        found = true;
        ++result.compared;
        if (allocs->number > budget.max_allocs_per_op) {
          result.regressions.push_back({"PROF_" + prof.name, budget.center, "allocs_per_op",
                                        budget.max_allocs_per_op, allocs->number,
                                        "exceeds absolute --alloc-budget"});
        }
      }
    }
    if (!found) {
      result.regressions.push_back({"(alloc-budget)", budget.center, "allocs_per_op",
                                    budget.max_allocs_per_op, 0,
                                    "cost center not found in any fresh PROF artifact"});
    }
  }
}

/// `replikit-report --check --baseline DIR <fresh...>`: the regression gate.
int check_main(const std::filesystem::path& baseline_dir,
               const std::vector<std::filesystem::path>& roots,
               const std::vector<AllocBudget>& budgets) {
  std::vector<std::filesystem::path> baseline_files;
  std::vector<std::filesystem::path> fresh_files;
  bool ok = expand_roots({baseline_dir}, baseline_files);
  ok = expand_roots(roots, fresh_files) && ok;

  ReportInputs baseline;
  ReportInputs fresh;
  bool malformed = false;
  ok = collect_inputs(baseline_files, baseline, &malformed) && ok;
  ok = collect_inputs(fresh_files, fresh, &malformed) && ok;
  if (baseline.benches.empty() && baseline.profs.empty() && baseline.crits.empty()) {
    std::cerr << "replikit-report: no BENCH_/PROF_/CRIT_ baselines under " << baseline_dir
              << "\n";
    return malformed ? 4 : (ok ? 2 : 1);
  }
  if (fresh.benches.empty() && fresh.profs.empty() && fresh.crits.empty()) {
    std::cerr << "replikit-report: no fresh BENCH_/PROF_/CRIT_ artifacts to check\n";
    return malformed ? 4 : (ok ? 2 : 1);
  }

  CheckResult result = check_against_baseline(baseline, fresh);
  check_alloc_budgets(budgets, fresh, result);
  std::cout << "replikit-report --check: " << result.compared << " metric(s) compared, "
            << result.regressions.size() << " regression(s)\n";
  for (const auto& issue : result.regressions) {
    std::cout << "  REGRESSION " << issue.artifact;
    if (!issue.row.empty()) std::cout << " [" << issue.row << "]";
    std::cout << " " << issue.metric;
    if (issue.metric != "(row)" && issue.metric != "(artifact)") {
      std::cout << ": baseline " << fmt(issue.base, 4) << " -> fresh " << fmt(issue.fresh, 4);
    }
    std::cout << " — " << issue.message << "\n";
  }
  if (!result.ok()) {
    std::cout << "FAIL: performance gate\n";
    return 3;  // a gate failure outranks a malformed side artifact
  }
  std::cout << "OK: no regressions against baseline\n";
  if (malformed) return 4;
  return ok ? 0 : 1;
}

/// Re-emits a parsed JSON value. Integral numbers print as integers, the
/// rest as JsonWriter prints doubles, so an exporter's output round-trips.
void write_json_value(obs::JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::Null:
      w.null();
      break;
    case JsonValue::Type::Bool:
      w.value(v.boolean);
      break;
    case JsonValue::Type::Number:
      if (std::trunc(v.number) == v.number && std::abs(v.number) < 9e15) {
        w.value(static_cast<std::int64_t>(v.number));
      } else {
        w.value(v.number);
      }
      break;
    case JsonValue::Type::String:
      w.value(v.str);
      break;
    case JsonValue::Type::Array:
      w.begin_array();
      for (const auto& e : v.array) write_json_value(w, e);
      w.end_array();
      break;
    case JsonValue::Type::Object:
      w.begin_object();
      for (const auto& [key, e] : v.object) {
        w.key(key);
        write_json_value(w, e);
      }
      w.end_object();
      break;
  }
}

/// A CRIT baseline keeps only what the gate reads: the name, the schema
/// version and the summary (the per-transaction `txns` are ~98% of a file).
std::string crit_baseline_text(const JsonValue& doc) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  for (const auto& [key, value] : doc.object) {
    if (key != "crit" && key != "schema_version" && key != "summary") continue;
    w.key(key);
    write_json_value(w, value);
  }
  w.end_object();
  os << "\n";
  return os.str();
}

/// `replikit-report --rebaseline [--baseline DIR] <fresh...>`: validates
/// fresh BENCH_/PROF_/CRIT_ artifacts and installs them as the committed
/// baselines (CRIT files trimmed to their summaries). Validation is the
/// point — a truncated or provenance-less file must never become the thing
/// the gate compares against.
int rebaseline_main(const std::filesystem::path& baseline_dir,
                    const std::vector<std::filesystem::path>& roots) {
  std::vector<std::filesystem::path> files;
  bool ok = expand_roots(roots, files);

  struct Install {
    std::string filename;
    std::string git_sha;
    std::string text;  // what the baseline file will hold
  };
  std::vector<Install> installs;
  for (const auto& path : files) {
    const auto filename = path.filename().string();
    const bool is_bench = filename.rfind("BENCH_", 0) == 0 && filename.ends_with(".json");
    const bool is_prof = filename.rfind("PROF_", 0) == 0 && filename.ends_with(".json");
    const bool is_crit = filename.rfind("CRIT_", 0) == 0 && filename.ends_with(".json");
    if (!is_bench && !is_prof && !is_crit) continue;
    const auto text = read_file(path);
    if (!text.has_value()) {
      std::cerr << "replikit-report: " << read_file_error << "\n";
      ok = false;
      continue;
    }
    std::string git_sha;
    if (is_bench) {
      const auto bench = parse_bench_json(*text, tag_of(filename, "BENCH_", ".json"));
      if (!bench.has_value()) {
        std::cerr << "replikit-report: refusing to rebaseline malformed bench report: " << path
                  << "\n";
        ok = false;
        continue;
      }
      git_sha = bench->git_sha;
    } else if (is_prof) {
      const auto prof = parse_prof_json(*text, tag_of(filename, "PROF_", ".json"));
      if (!prof.has_value()) {
        std::cerr << "replikit-report: refusing to rebaseline malformed cost profile: " << path
                  << "\n";
        ok = false;
        continue;
      }
      git_sha = prof->git_sha;
    } else {
      // CRIT carries no provenance stamp (schema v1): validate parseability
      // only — the gate matches it to a fresh run by name, not by sha.
      const auto crit = parse_crit_json(*text, tag_of(filename, "CRIT_", ".json"));
      if (!crit.has_value()) {
        std::cerr << "replikit-report: refusing to rebaseline malformed critical-path report: "
                  << path << "\n";
        ok = false;
        continue;
      }
      installs.push_back({filename, "(crit)", crit_baseline_text(crit->doc)});
      continue;
    }
    if (git_sha == "unknown") {
      std::cerr << "replikit-report: refusing to rebaseline " << path
                << ": no provenance (git_sha) — rebuild from a git checkout\n";
      ok = false;
      continue;
    }
    installs.push_back({filename, git_sha, *text});
  }

  if (installs.empty()) {
    std::cerr << "replikit-report: no valid BENCH_/PROF_/CRIT_ artifacts to rebaseline\n";
    return ok ? 2 : 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(baseline_dir, ec);
  if (ec) {
    std::cerr << "replikit-report: cannot create " << baseline_dir << ": " << ec.message()
              << "\n";
    return 1;
  }
  for (const auto& install : installs) {
    const auto dest = baseline_dir / install.filename;
    std::ofstream out(dest, std::ios::binary | std::ios::trunc);
    out << install.text;
    out.close();
    if (!out) {
      std::cerr << "replikit-report: cannot write " << dest << "\n";
      ok = false;
      continue;
    }
    std::cout << "rebaselined " << dest.string() << " (git_sha " << install.git_sha << ")\n";
  }
  std::cout << "replikit-report --rebaseline: " << installs.size()
            << " artifact(s) installed into " << baseline_dir.string()
            << " — commit them alongside the change they measure\n";
  return ok ? 0 : 1;
}

}  // namespace

int report_main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_dir;
  bool check = false;
  bool rebaseline = false;
  bool flame = false;
  bool waterfall = false;
  std::vector<AllocBudget> budgets;
  std::vector<std::filesystem::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" || arg == "--output") {
      if (i + 1 >= argc) {
        usage(std::cerr);
        return 1;
      }
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--rebaseline") {
      rebaseline = true;
    } else if (arg == "--baseline") {
      if (i + 1 >= argc) {
        usage(std::cerr);
        return 1;
      }
      baseline_dir = argv[++i];
    } else if (arg == "--alloc-budget") {
      if (i + 1 >= argc) {
        usage(std::cerr);
        return 1;
      }
      const auto budget = parse_alloc_budget(argv[++i]);
      if (!budget.has_value()) {
        std::cerr << "replikit-report: bad --alloc-budget (want CENTER=N): " << argv[i] << "\n";
        return 1;
      }
      budgets.push_back(*budget);
    } else if (arg == "flame" && roots.empty() && !check && !rebaseline && !waterfall) {
      flame = true;
    } else if (arg == "waterfall" && roots.empty() && !check && !rebaseline && !flame) {
      waterfall = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty() || (check && baseline_dir.empty()) || (check && flame) ||
      (check && rebaseline) || (rebaseline && flame) || (waterfall && flame) ||
      (!budgets.empty() && !check)) {
    usage(std::cerr);
    return 1;
  }
  if (flame) return flame_main(out_path, roots);
  if (waterfall) return waterfall_main(out_path, roots);
  if (check) return check_main(baseline_dir, roots, budgets);
  if (rebaseline) {
    return rebaseline_main(baseline_dir.empty() ? "bench/baselines" : baseline_dir, roots);
  }

  std::vector<std::filesystem::path> files;
  bool ok = expand_roots(roots, files);

  ReportInputs inputs;
  bool malformed = false;
  ok = collect_inputs(files, inputs, &malformed) && ok;

  if (inputs.traces.empty() && inputs.stats.empty() && inputs.benches.empty() &&
      inputs.profs.empty() && inputs.crits.empty()) {
    std::cerr << "replikit-report: no TRACE_/STATS_/BENCH_/PROF_/CRIT_ inputs found\n";
    // A bad path or unreadable file is an error, not "empty".
    return malformed ? 4 : (ok ? 2 : 1);
  }

  std::ostringstream report;
  write_report(inputs, report);
  if (!write_output(out_path, report.str())) return 1;
  if (malformed) return 4;
  return ok ? 0 : 1;
}

}  // namespace repli::tools

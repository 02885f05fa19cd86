// replikit-report: turns one run's observability artifacts — Chrome trace
// JSON (TRACE_*.json), NDJSON metrics (STATS_*.ndjson), and bench reports
// (BENCH_*.json) — into a markdown report: measured ASCII phase diagrams
// per technique, health tables (staleness, divergence, aborts, failover),
// and a cross-run comparison when several bench reports are given.
//
// Traces are read back into an obs::Tracer (obs::read_chrome_trace), so the
// phase patterns, timelines and flame stacks come from the same code a live
// run uses (sim::pattern, sim::write_timeline, obs::write_folded): the
// report validates the figure pipeline from measurement, with no second
// derivation to drift.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/trace.hh"

namespace repli::tools {

struct TraceData {
  std::string tag;  // TRACE_<tag>.json
  obs::Tracer tracer;
  std::set<std::string, std::less<>> names;  // flow type names the flows view
};

/// One parsed STATS_*.ndjson line (counter/gauge/histogram as JSON).
struct StatsData {
  std::string tag;
  std::vector<obs::JsonValue> metrics;
};

struct BenchData {
  std::string name;  // BENCH_<name>.json
  std::string git_sha;
  obs::JsonValue doc;
};

/// One parsed PROF_<name>.json cost-accounting report (schema v1: the
/// profiler's per-cost-center self-time and heap activity).
struct ProfData {
  std::string name;  // PROF_<name>.json
  std::string git_sha;
  obs::JsonValue doc;
};

/// One parsed CRIT_<name>.json critical-path report (schema v1: per-txn
/// causal waterfall segments plus the per-segment percentile summary and
/// p99-vs-p50 tail differential). The per-txn list is optional: a committed
/// baseline keeps only the summary, which is all the gate reads.
struct CritData {
  std::string name;  // CRIT_<name>.json
  obs::JsonValue doc;
};

/// Reads a Chrome trace through obs::read_chrome_trace. Nullopt on
/// malformed input; unmatched flow halves are dropped.
std::optional<TraceData> parse_chrome_trace(std::string_view text, std::string tag = "");

std::optional<StatsData> parse_stats_ndjson(std::string_view text, std::string tag = "");

std::optional<BenchData> parse_bench_json(std::string_view text, std::string name = "");

std::optional<ProfData> parse_prof_json(std::string_view text, std::string name = "");

std::optional<CritData> parse_crit_json(std::string_view text, std::string name = "");

struct ReportInputs {
  std::vector<TraceData> traces;
  std::vector<StatsData> stats;
  std::vector<BenchData> benches;
  std::vector<ProfData> profs;
  std::vector<CritData> crits;
};

/// Emits the full markdown report.
void write_report(const ReportInputs& inputs, std::ostream& os);

/// Emits the latency-waterfall markdown document from CRIT_*.json inputs:
/// one ASCII waterfall + tail-differential table per artifact, the slowest
/// transactions with their full critical paths, and a cross-technique
/// comparison when several artifacts are given. Output is deterministic for
/// deterministic inputs (golden-file tested).
void write_waterfall(const std::vector<CritData>& crits, std::ostream& os);

/// One gate violation found by check_against_baseline.
struct CheckIssue {
  std::string artifact;  // e.g. "BENCH_perf_workloads"
  std::string row;       // row identity (technique+config+sweep key, op, center)
  std::string metric;
  double base = 0;
  double fresh = 0;
  std::string message;  // human-readable verdict
};

struct CheckResult {
  std::size_t compared = 0;  // metric comparisons performed
  std::vector<CheckIssue> regressions;
  bool ok() const { return regressions.empty(); }
};

/// Perf-regression gate: compares fresh BENCH/PROF artifacts against a
/// baseline set. Rows are matched by identity (workload rows: technique +
/// config + seed + sweep fields; micro rows: "op"; prof rows: cost center),
/// then each gated metric is checked against a per-metric direction and
/// relative threshold. A baseline artifact or row with no fresh counterpart
/// is itself a regression (coverage must not silently shrink).
CheckResult check_against_baseline(const ReportInputs& baseline, const ReportInputs& fresh);

/// CLI: replikit-report [-o out.md] <files-or-dirs...>
///      replikit-report --check --baseline DIR <files-or-dirs...>
///      replikit-report flame <TRACE_*.json> [-o out.folded]
///      replikit-report waterfall <files-or-dirs...> [-o out.md]
/// Scans directories for TRACE_*.json / STATS_*.ndjson / BENCH_*.json /
/// PROF_*.json / CRIT_*.json. Returns a process exit code (0 ok; 1 usage
/// or I/O error; 2 no inputs found; 3 regression gate failed; 4 truncated
/// or malformed artifact).
int report_main(int argc, char** argv);

}  // namespace repli::tools

// The perf-regression gate and the flame subcommand: canned artifacts in,
// exit codes and folded stacks out. The flame golden test pins the folded
// format (stack lines, sorting, instant handling) against a hand-checked
// fixture, read back through obs::read_chrome_trace and folded by
// obs::write_folded.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/report/report.hh"

namespace repli::tools {
namespace {

namespace fs = std::filesystem;

// A canned exported trace: node 0 runs a 100us request span containing a
// 30us db/exec.op (which itself nests a 10us wire.encode); node 1 has a
// free-standing 20us span and an instant. Events appear in (ts, id) order,
// exactly as the exporter emits them.
constexpr const char* kCannedTrace = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "replikit"}},
    {"name": "core/EX", "cat": "core", "pid": 0, "tid": 0, "ts": 0, "ph": "X", "dur": 100,
     "args": {"request": "r-1"}},
    {"name": "db/exec.op", "cat": "db", "pid": 0, "tid": 0, "ts": 10, "ph": "X", "dur": 30,
     "args": {"request": "r-1"}},
    {"name": "wire.encode", "cat": "wire", "pid": 0, "tid": 0, "ts": 15, "ph": "X", "dur": 10},
    {"name": "gcs/deliver", "cat": "gcs", "pid": 0, "tid": 1, "ts": 5, "ph": "X", "dur": 20},
    {"name": "net/drop", "cat": "net", "pid": 0, "tid": 1, "ts": 12, "ph": "i", "s": "t"}
  ]
})";

// Hand-derived folded stacks: core/EX self = 100-30 = 70; db/exec.op self
// = 30-10 = 20; wire.encode self = 10; node 1's span is unnested; the
// instant contributes nothing. Lines sort lexicographically.
constexpr const char* kExpectedFolded =
    "node0;core/EX 70\n"
    "node0;core/EX;db/exec.op 20\n"
    "node0;core/EX;db/exec.op;wire.encode 10\n"
    "node1;gcs/deliver 20\n";

class GateCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, in parallel — the scratch
    // directory must be unique per test or a sibling's cleanup races us.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("replikit-gate-") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "baseline");
    fs::create_directories(dir_ / "fresh");
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << path;
  }

  int run_report(std::vector<std::string> args) {
    std::vector<char*> argv;
    args.insert(args.begin(), "replikit-report");
    for (auto& arg : args) argv.push_back(arg.data());
    return report_main(static_cast<int>(argv.size()), argv.data());
  }

  std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  /// One workload row with the given throughput/p95/msgs-per-op.
  static std::string bench_doc(double throughput, double p95, double msgs) {
    std::ostringstream os;
    os << R"({"bench": "gate_probe", "schema_version": 2,)"
       << R"( "provenance": {"git_sha": "cafe123"}, "rows": [{)"
       << R"("technique": "active", "replicas": 3, "seed": 7,)"
       << R"( "ops_ok": 100, "throughput_ops_per_s": )" << throughput
       << R"(, "latency_us": {"mean": 500, "p50": 450, "p95": )" << p95
       << R"(, "p99": 900}, "msgs_per_op": )" << msgs
       << R"(, "bytes_per_op": 2000, "converged": true}]})";
    return os.str();
  }

  static std::string prof_doc(double allocs_per_op) {
    std::ostringstream os;
    os << R"({"prof": "gate_probe", "schema_version": 1,)"
       << R"( "provenance": {"git_sha": "cafe123"}, "enabled": true, "ops": 100,)"
       << R"( "centers": [{"center": "wire.encode", "calls": 400, "self_ns": 80000,)"
       << R"( "total_ns": 80000, "allocs": 800, "alloc_bytes": 64000,)"
       << R"( "calls_per_op": 4.0, "self_ns_per_op": 800.0, "allocs_per_op": )"
       << allocs_per_op << R"(, "alloc_bytes_per_op": 640.0}]})";
    return os.str();
  }

  fs::path dir_;
};

/// A CRIT report whose one segment has the given p95; `per_txn` adds the
/// per-transaction list a traced run writes and a baseline drops.
std::string crit_doc(int p95, bool per_txn) {
  std::ostringstream os;
  os << R"({"crit":"gate_probe","schema_version":1,)";
  if (per_txn) {
    os << R"("txns":[{"request":"c1-0","trace":1,"client":1,"ok":true,"start_us":0,)"
       << R"("end_us":300,"total_us":300,"attributed_us":300,"hops":1,"segments":[)"
       << R"({"kind":"net_transit","node":1,"start_us":0,"dur_us":300,"detail":"gcs.LinkData"}]}],)";
  }
  os << R"("summary":{"txns":1,"total_us":300,"attributed_us":300,"coverage":0.9875,)"
     << R"("segments":[{"kind":"net_transit","txns_touched":1,"p50_us":300,"p95_us":)" << p95
     << R"(,"p99_us":300,"mean_us":300.5,"max_us":300}],)"
     << R"("tail":[{"kind":"net_transit","p50_us":300,"p99_us":300,"delta_us":0}]}})" << "\n";
  return os.str();
}

TEST_F(GateCli, IdenticalArtifactsPass) {
  write_file(dir_ / "baseline" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
}

TEST_F(GateCli, ThroughputDropOverThresholdExitsThree) {
  write_file(dir_ / "baseline" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  // 20% throughput drop > the 15% tolerance.
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(3200, 800, 6.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, SmallDriftWithinToleranceStillPasses) {
  write_file(dir_ / "baseline" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  // 5% worse everywhere: inside every window.
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(3800, 840, 6.3));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
}

TEST_F(GateCli, MsgsPerOpGrowthTripsItsTighterThreshold) {
  write_file(dir_ / "baseline" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  // +12% msgs/op > the 10% window, though throughput/latency are clean.
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.72));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, MissingFreshArtifactIsARegression) {
  write_file(dir_ / "baseline" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  write_file(dir_ / "fresh" / "BENCH_other.json",
             R"({"bench": "other", "schema_version": 2, "rows": []})");
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, ProfAllocGrowthTripsTheGate) {
  write_file(dir_ / "baseline" / "PROF_gate_probe.json", prof_doc(8.0));
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
  // +50% allocations per op > the 25% window.
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(12.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, AllocBudgetWithinCeilingPasses) {
  write_file(dir_ / "baseline" / "PROF_gate_probe.json", prof_doc(8.0));
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        "--alloc-budget", "wire.encode=10", (dir_ / "fresh").string()}),
            0);
}

TEST_F(GateCli, AllocBudgetExceededExitsThree) {
  // The relative gate is clean (fresh == baseline) but the absolute budget
  // is tighter — it must trip independently of baseline drift.
  write_file(dir_ / "baseline" / "PROF_gate_probe.json", prof_doc(8.0));
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        "--alloc-budget", "wire.encode=5", (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, AllocBudgetOnMissingCenterIsARegression) {
  // A budget naming a center that no fresh profile measured must fail
  // loudly, not pass vacuously.
  write_file(dir_ / "baseline" / "PROF_gate_probe.json", prof_doc(8.0));
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        "--alloc-budget", "no.such.center=5", (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, AllocBudgetMalformedOrWithoutCheckIsAUsageError) {
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        "--alloc-budget", "wire.encode", (dir_ / "fresh").string()}),
            1);  // no "=N"
  EXPECT_EQ(run_report({"--alloc-budget", "wire.encode=5", (dir_ / "fresh").string()}), 1);
}

TEST_F(GateCli, RebaselineInstallsValidatedArtifacts) {
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  write_file(dir_ / "fresh" / "PROF_gate_probe.json", prof_doc(8.0));
  EXPECT_EQ(run_report({"--rebaseline", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
  EXPECT_EQ(slurp(dir_ / "baseline" / "BENCH_gate_probe.json"), bench_doc(4000, 800, 6.0));
  EXPECT_EQ(slurp(dir_ / "baseline" / "PROF_gate_probe.json"), prof_doc(8.0));
  // The installed baselines gate the very artifacts they came from.
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
}

TEST_F(GateCli, RebaselineTrimsCritToItsSummary) {
  write_file(dir_ / "fresh" / "CRIT_gate_probe.json", crit_doc(300, true));
  EXPECT_EQ(run_report({"--rebaseline", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
  EXPECT_EQ(slurp(dir_ / "baseline" / "CRIT_gate_probe.json"), crit_doc(300, false));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            0);
  write_file(dir_ / "fresh" / "CRIT_gate_probe.json", crit_doc(600, true));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            3);
}

TEST_F(GateCli, RebaselineRefusesMalformedArtifacts) {
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", R"({"bench": "truncated)");
  EXPECT_EQ(run_report({"--rebaseline", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            1);
  EXPECT_FALSE(fs::exists(dir_ / "baseline" / "BENCH_gate_probe.json"));
}

TEST_F(GateCli, RebaselineRefusesArtifactsWithoutProvenance) {
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json",
             R"({"bench": "gate_probe", "schema_version": 2, "rows": []})");
  EXPECT_EQ(run_report({"--rebaseline", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            1);
  EXPECT_FALSE(fs::exists(dir_ / "baseline" / "BENCH_gate_probe.json"));
}

TEST_F(GateCli, EmptyBaselineDirReportsNoInputs) {
  write_file(dir_ / "fresh" / "BENCH_gate_probe.json", bench_doc(4000, 800, 6.0));
  EXPECT_EQ(run_report({"--check", "--baseline", (dir_ / "baseline").string(),
                        (dir_ / "fresh").string()}),
            2);
}

TEST_F(GateCli, CheckWithoutBaselineIsAUsageError) {
  EXPECT_EQ(run_report({"--check", (dir_ / "fresh").string()}), 1);
}

// -- check_against_baseline unit level ---------------------------------------

TEST(CheckAgainstBaseline, ConvergedMustNotRegress) {
  const auto base = parse_bench_json(
      R"({"bench": "b", "rows": [{"technique": "active", "seed": 1, "converged": true}]})");
  const auto fresh = parse_bench_json(
      R"({"bench": "b", "rows": [{"technique": "active", "seed": 1, "converged": false}]})");
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(fresh.has_value());
  ReportInputs baseline_in;
  baseline_in.benches.push_back(*base);
  ReportInputs fresh_in;
  fresh_in.benches.push_back(*fresh);
  const auto result = check_against_baseline(baseline_in, fresh_in);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions.front().metric, "converged");
}

TEST(CheckAgainstBaseline, RowsMatchBySweepIdentityNotPosition) {
  // Baseline lists write_ratio 0.1 then 0.9; fresh lists them reversed
  // with identical numbers — identity matching must pair them correctly.
  const char* fmt =
      R"({"bench": "b", "rows": [)"
      R"({"technique": "active", "seed": 1, "write_ratio": %s, "throughput_ops_per_s": %s},)"
      R"({"technique": "active", "seed": 1, "write_ratio": %s, "throughput_ops_per_s": %s}]})";
  char base_json[512];
  std::snprintf(base_json, sizeof base_json, fmt, "0.1", "4000", "0.9", "2000");
  char fresh_json[512];
  std::snprintf(fresh_json, sizeof fresh_json, fmt, "0.9", "2000", "0.1", "4000");
  const auto base = parse_bench_json(base_json);
  const auto fresh = parse_bench_json(fresh_json);
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(fresh.has_value());
  ReportInputs baseline_in;
  baseline_in.benches.push_back(*base);
  ReportInputs fresh_in;
  fresh_in.benches.push_back(*fresh);
  EXPECT_TRUE(check_against_baseline(baseline_in, fresh_in).ok());
}

TEST(CheckAgainstBaseline, SummaryOnlyCritBaselineGatesLikeTheWholeFile) {
  const auto whole = parse_crit_json(crit_doc(300, true));
  const auto summary_only = parse_crit_json(crit_doc(300, false));
  ASSERT_TRUE(whole.has_value());
  ASSERT_TRUE(summary_only.has_value());
  EXPECT_EQ(summary_only->doc.find("txns"), nullptr);
  for (const int fresh_p95 : {300, 360, 390, 600}) {
    const auto fresh = parse_crit_json(crit_doc(fresh_p95, true));
    ASSERT_TRUE(fresh.has_value());
    ReportInputs fresh_in;
    fresh_in.crits.push_back(*fresh);
    ReportInputs whole_in;
    whole_in.crits.push_back(*whole);
    ReportInputs summary_in;
    summary_in.crits.push_back(*summary_only);
    const auto by_whole = check_against_baseline(whole_in, fresh_in);
    const auto by_summary = check_against_baseline(summary_in, fresh_in);
    EXPECT_EQ(by_summary.compared, by_whole.compared) << fresh_p95;
    EXPECT_EQ(by_whole.compared, 4u);  // coverage + p50/p95/p99 of the one segment
    ASSERT_EQ(by_summary.regressions.size(), by_whole.regressions.size()) << fresh_p95;
    for (std::size_t i = 0; i < by_whole.regressions.size(); ++i) {
      EXPECT_EQ(by_summary.regressions[i].metric, by_whole.regressions[i].metric);
      EXPECT_EQ(by_summary.regressions[i].fresh, by_whole.regressions[i].fresh);
    }
    EXPECT_EQ(by_whole.ok(), fresh_p95 <= 375) << fresh_p95;  // p95 window: +25%
  }
}

TEST(ParseCritJson, TxnsAreOptionalButMustBeAnArray) {
  EXPECT_TRUE(parse_crit_json(crit_doc(300, false)).has_value());
  EXPECT_FALSE(parse_crit_json(R"({"crit":"x","txns":{},"summary":{}})").has_value());
  EXPECT_FALSE(parse_crit_json(R"({"crit":"x","txns":[]})").has_value());
}

// -- flame subcommand --------------------------------------------------------

TEST_F(GateCli, FlameMatchesTheGoldenFoldedStacks) {
  const auto trace_path = dir_ / "TRACE_golden.json";
  const auto out_path = dir_ / "golden.folded";
  write_file(trace_path, kCannedTrace);
  ASSERT_EQ(run_report({"flame", trace_path.string(), "-o", out_path.string()}), 0);
  EXPECT_EQ(slurp(out_path), kExpectedFolded);
}

TEST_F(GateCli, FlameRejectsMalformedTraces) {
  const auto trace_path = dir_ / "TRACE_bad.json";
  write_file(trace_path, "{not json");
  EXPECT_EQ(run_report({"flame", trace_path.string()}), 1);
}

TEST(ParseProfJson, ReadsNameShaAndCenters) {
  const auto prof = parse_prof_json(
      R"({"prof": "x", "schema_version": 1, "provenance": {"git_sha": "abc"},)"
      R"( "enabled": true, "ops": 10, "centers": [{"center": "db.lock", "calls": 5}]})");
  ASSERT_TRUE(prof.has_value());
  EXPECT_EQ(prof->name, "x");
  EXPECT_EQ(prof->git_sha, "abc");
  const auto* centers = prof->doc.find("centers");
  ASSERT_NE(centers, nullptr);
  ASSERT_EQ(centers->array.size(), 1u);
}

TEST(ParseProfJson, RejectsDocumentsWithoutCenters) {
  EXPECT_FALSE(parse_prof_json(R"({"prof": "x"})").has_value());
  EXPECT_FALSE(parse_prof_json("[1, 2]").has_value());
}

}  // namespace
}  // namespace repli::tools

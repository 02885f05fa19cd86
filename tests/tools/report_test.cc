// replikit-report end to end: drive the real bench harness (run_workload
// with REPLI_TRACE on) into a scratch directory, run the report CLI over
// the artifacts, and check the markdown reproduces the paper's measured
// phase patterns and the health tables. Plus parser edge cases.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/common.hh"
#include "tools/report/report.hh"

namespace repli::tools {
namespace {

namespace fs = std::filesystem;

class ReportEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process scratch: gtest_discover_tests runs each TEST as its own
    // ctest entry, so under `ctest -j` two tests of this fixture race on a
    // shared directory name.
    dir_ = fs::path(::testing::TempDir()) /
           ("replikit-report-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::setenv("REPLI_BENCH_DIR", dir_.c_str(), 1);
    ::setenv("REPLI_TRACE", "1", 1);
    ::setenv("REPLI_LOG", "off", 1);
  }
  void TearDown() override {
    ::unsetenv("REPLI_BENCH_DIR");
    ::unsetenv("REPLI_TRACE");
    fs::remove_all(dir_);
  }

  int run_report(std::vector<std::string> args) {
    std::vector<char*> argv;
    args.insert(args.begin(), "replikit-report");
    for (auto& arg : args) argv.push_back(arg.data());
    return report_main(static_cast<int>(argv.size()), argv.data());
  }

  fs::path dir_;
};

TEST_F(ReportEndToEnd, ReproducesPaperPatternsFromBenchArtifacts) {
  bench::WorkloadParams params;
  params.clients = 1;
  params.ops_per_client = 5;
  params.write_ratio = 1.0;
  std::vector<bench::RunStats> rows;
  rows.push_back(bench::run_workload(core::TechniqueKind::Active, params));
  rows.push_back(bench::run_workload(core::TechniqueKind::EagerPrimary, params));
  ASSERT_TRUE(bench::write_bench_json("report_test", rows));

  const auto out = dir_ / "REPORT.md";
  ASSERT_EQ(run_report({"-o", out.string(), dir_.string()}), 0);

  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string report = buf.str();

  EXPECT_NE(report.find("# replikit run report"), std::string::npos);
  EXPECT_NE(report.find("## Provenance"), std::string::npos);
  EXPECT_NE(report.find("report_test"), std::string::npos);
  // The acceptance bar: the report rebuilds Fig. 2 and Fig. 7 phase orders
  // from measured spans, not from the paper's table.
  EXPECT_NE(report.find("measured pattern `RE SC EX END`"), std::string::npos) << report;
  EXPECT_NE(report.find("measured pattern `RE EX AC END`"), std::string::npos) << report;
  EXPECT_EQ(report.find("DIFFERS from the paper figure"), std::string::npos);
  EXPECT_NE(report.find("## Replication health"), std::string::npos);
  EXPECT_NE(report.find("**Staleness**"), std::string::npos);
  EXPECT_NE(report.find("## Bench results"), std::string::npos);
  EXPECT_NE(report.find("| active |"), std::string::npos);
  EXPECT_NE(report.find("legend: RE request"), std::string::npos);
}

TEST_F(ReportEndToEnd, FailsCleanlyOnEmptyAndMissingInputs) {
  EXPECT_EQ(run_report({dir_.string()}), 2);  // directory with no artifacts
  EXPECT_EQ(run_report({(dir_ / "nope").string()}), 1);
  EXPECT_EQ(run_report({}), 1);  // usage error
}

TEST_F(ReportEndToEnd, MalformedArtifactIsAnErrorButOthersStillReport) {
  {
    std::ofstream bad(dir_ / "TRACE_broken-1.json");
    bad << "{not json";
  }
  {
    std::ofstream good(dir_ / "BENCH_ok.json");
    good << R"({"bench":"ok","schema_version":2,"provenance":{"git_sha":"abc"},"rows":[]})";
  }
  const auto out = dir_ / "REPORT.md";
  // Truncated/corrupt artifacts get the dedicated exit code, distinct from
  // plain I/O errors (1) and empty input (2) — CI can tell them apart.
  EXPECT_EQ(run_report({"-o", out.string(), dir_.string()}), 4);
  std::ifstream in(out);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("`abc`"), std::string::npos) << "good input dropped";
}

TEST_F(ReportEndToEnd, TruncatedArtifactsYieldExitFourEverywhere) {
  // A bench report cut off mid-write (the classic crashed-run artifact).
  {
    std::ofstream bad(dir_ / "BENCH_cut.json");
    bad << R"({"bench":"cut","schema_version":2,"rows":[{"technique":"acti)";
  }
  {
    std::ofstream bad(dir_ / "CRIT_cut-1.json");
    bad << R"({"crit":"cut-1","schema_version":1,"txns":[)";
  }
  EXPECT_EQ(run_report({"-o", (dir_ / "REPORT.md").string(), dir_.string()}), 4);
  EXPECT_EQ(run_report({"waterfall", "-o", (dir_ / "WF.md").string(), dir_.string()}), 4);

  // A structurally valid CRIT document missing its summary is also corrupt
  // (parse_crit_json demands the sections the waterfall renders from).
  {
    std::ofstream bad(dir_ / "CRIT_cut-1.json");
    bad << R"({"crit":"cut-1","schema_version":1,"txns":[]})";
  }
  fs::remove(dir_ / "BENCH_cut.json");
  EXPECT_EQ(run_report({"waterfall", (dir_ / "CRIT_cut-1.json").string()}), 4);
}

// A trace whose only span carries `span_fields` (ts, ph, dur) — malformed
// for each value below. The reader must refuse it before the span reaches
// Tracer::record, and both CLI modes must report it as malformed.
std::string one_span_trace(const std::string& span_fields) {
  return R"({"traceEvents":[{"name":"core/EX","cat":"core","pid":0,"tid":0,)" + span_fields +
         "}]}";
}

TEST_F(ReportEndToEnd, NegativeDurationIsMalformed) {
  const auto text = one_span_trace(R"("ts":5,"ph":"X","dur":-3)");
  EXPECT_FALSE(parse_chrome_trace(text).has_value());
  std::ofstream(dir_ / "TRACE_bad-1.json") << text;
  EXPECT_EQ(run_report({"-o", (dir_ / "REPORT.md").string(), dir_.string()}), 4);
  EXPECT_EQ(run_report({"flame", (dir_ / "TRACE_bad-1.json").string()}), 1);
}

TEST_F(ReportEndToEnd, NegativeTimestampIsMalformed) {
  const auto text = one_span_trace(R"("ts":-5,"ph":"X","dur":3)");
  EXPECT_FALSE(parse_chrome_trace(text).has_value());
  std::ofstream(dir_ / "TRACE_bad-1.json") << text;
  EXPECT_EQ(run_report({"-o", (dir_ / "REPORT.md").string(), dir_.string()}), 4);
  EXPECT_EQ(run_report({"flame", (dir_ / "TRACE_bad-1.json").string()}), 1);
}

TEST_F(ReportEndToEnd, FractionalTimestampIsMalformed) {
  const auto text = one_span_trace(R"("ts":2.5,"ph":"i","s":"t")");
  EXPECT_FALSE(parse_chrome_trace(text).has_value());
  std::ofstream(dir_ / "TRACE_bad-1.json") << text;
  EXPECT_EQ(run_report({"-o", (dir_ / "REPORT.md").string(), dir_.string()}), 4);
  EXPECT_EQ(run_report({"flame", (dir_ / "TRACE_bad-1.json").string()}), 1);
}

TEST_F(ReportEndToEnd, WaterfallNeedsCritInputs) {
  EXPECT_EQ(run_report({"waterfall", dir_.string()}), 2);  // nothing to render
  {
    std::ofstream good(dir_ / "CRIT_mini-1.json");
    good << R"({"crit":"mini-1","schema_version":1,
      "txns":[{"request":"c0-0","trace":1,"client":3,"ok":true,
               "start_us":0,"end_us":100,"total_us":100,"attributed_us":100,"hops":1,
               "segments":[{"kind":"net_transit","node":0,"start_us":0,"dur_us":100}]}],
      "summary":{"txns":1,"total_us":100,"attributed_us":100,"coverage":1.0,
        "segments":[{"kind":"net_transit","txns_touched":1,"p50_us":100,"p95_us":100,
                     "p99_us":100,"mean_us":100,"max_us":100}],
        "tail":[{"kind":"net_transit","p50_us":100,"p99_us":100,"delta_us":0}]}})";
  }
  const auto out = dir_ / "WF.md";
  ASSERT_EQ(run_report({"waterfall", "-o", out.string(), dir_.string()}), 0);
  std::ifstream in(out);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("# replikit latency waterfalls"), std::string::npos);
  EXPECT_NE(buf.str().find("net_transit"), std::string::npos);
  EXPECT_NE(buf.str().find("c0-0"), std::string::npos) << "slowest-txn path missing";
}

TEST(ReportParsers, ChromeTraceRoundTripMatchesFlowHalves) {
  const std::string text = R"({"displayTimeUnit":"ms","traceEvents":[
    {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"replikit"}},
    {"name":"core/EX","cat":"core","pid":0,"tid":1,"ts":5,"ph":"X","dur":10,
     "args":{"request":"r1","trace":4}},
    {"name":"w.Msg","cat":"net","ph":"s","id":1,"pid":0,"tid":0,"ts":1,
     "args":{"trace":4,"lamport":1}},
    {"name":"w.Msg","cat":"net","ph":"f","bp":"e","id":1,"pid":0,"tid":1,"ts":3,
     "args":{"trace":4,"lamport":2}},
    {"name":"orphan","cat":"net","ph":"f","bp":"e","id":9,"pid":0,"tid":1,"ts":3,
     "args":{"lamport":2}}
  ]})";
  const auto trace = parse_chrome_trace(text, "t");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->tag, "t");
  ASSERT_EQ(trace->tracer.size(), 1u);
  EXPECT_EQ(trace->tracer.spans()[0].trace, 4u);
  EXPECT_EQ(trace->tracer.spans()[0].request, "r1");
  ASSERT_EQ(trace->tracer.flows().size(), 1u) << "orphan flow finish must be dropped";
  const auto& flow = trace->tracer.flows()[0];
  EXPECT_EQ(flow.from, 0);
  EXPECT_EQ(flow.to, 1);
  EXPECT_EQ(flow.trace, 4u);
  EXPECT_EQ(flow.type, "w.Msg");
  EXPECT_EQ(flow.lamport_send, 1);
  EXPECT_EQ(flow.lamport_recv, 2);

  EXPECT_FALSE(parse_chrome_trace("{}").has_value());
  EXPECT_FALSE(parse_chrome_trace("[1,2]").has_value());
}

TEST(ReportParsers, StatsNdjsonRejectsMalformedLines) {
  const auto ok = parse_stats_ndjson(
      "{\"metric\":\"monitor.aborts\",\"type\":\"counter\",\"labels\":{\"cause\":"
      "\"deadlock\"},\"value\":2}\n\n"
      "{\"metric\":\"monitor.failover_us\",\"type\":\"histogram\",\"count\":1,"
      "\"mean\":5.0,\"min\":5.0,\"max\":5.0,\"p50\":5.0,\"p95\":5.0,\"p99\":5.0}\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->metrics.size(), 2u);
  EXPECT_FALSE(parse_stats_ndjson("{\"metric\":\"x\"}\nnot json\n").has_value());
}

}  // namespace
}  // namespace repli::tools

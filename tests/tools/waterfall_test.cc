// The waterfall subcommand, pinned two ways: a golden-file test over canned
// CRIT artifacts (the rendering itself must never drift — ASCII bars, table
// layout, number formatting are all part of the artifact contract), and a
// byte-stability test over real same-seed bench runs (the whole pipeline —
// simulator, tracer, critical-path extraction, JSON writer, renderer — must
// be deterministic end to end).
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/common.hh"
#include "tools/report/report.hh"

namespace repli::tools {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const fs::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

class WaterfallCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process scratch: under `ctest -j` each TEST is its own process and
    // a shared directory name races across concurrently running tests.
    dir_ = fs::path(::testing::TempDir()) /
           ("replikit-waterfall-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_report(std::vector<std::string> args) {
    std::vector<char*> argv;
    args.insert(args.begin(), "replikit-report");
    for (auto& arg : args) argv.push_back(arg.data());
    return report_main(static_cast<int>(argv.size()), argv.data());
  }

  fs::path dir_;
};

// Two canned artifacts: one clean single-segment run (also exercising the
// technique lookup via the `active-1` tag) and one with a queue-dominated
// tail, an unattributed remainder, and a failed transaction that must stay
// out of every percentile.
constexpr std::string_view kCritActive = R"({"crit":"active-1","schema_version":1,
 "txns":[
  {"request":"c2-0","trace":1,"client":2,"ok":true,"start_us":0,"end_us":400,
   "total_us":400,"attributed_us":400,"hops":2,"segments":[
    {"kind":"net_transit","node":2,"start_us":0,"dur_us":150,"detail":"gcs.LinkData"},
    {"kind":"storage_exec","node":0,"start_us":150,"dur_us":100,"detail":"db/exec.op"},
    {"kind":"net_transit","node":0,"start_us":250,"dur_us":150,"detail":"core.ClientReply"}]},
  {"request":"c2-1","trace":2,"client":2,"ok":true,"start_us":1000,"end_us":1300,
   "total_us":300,"attributed_us":300,"hops":2,"segments":[
    {"kind":"net_transit","node":2,"start_us":1000,"dur_us":100,"detail":"gcs.LinkData"},
    {"kind":"storage_exec","node":0,"start_us":1100,"dur_us":100,"detail":"db/exec.op"},
    {"kind":"net_transit","node":0,"start_us":1200,"dur_us":100,"detail":"core.ClientReply"}]}],
 "summary":{"txns":2,"total_us":700,"attributed_us":700,"coverage":1.0,
  "segments":[
   {"kind":"net_transit","txns_touched":2,"p50_us":250,"p95_us":300,"p99_us":300,
    "mean_us":250.0,"max_us":300},
   {"kind":"storage_exec","txns_touched":2,"p50_us":100,"p95_us":100,"p99_us":100,
    "mean_us":100.0,"max_us":100}],
  "tail":[
   {"kind":"net_transit","p50_us":250,"p99_us":300,"delta_us":50},
   {"kind":"storage_exec","p50_us":100,"p99_us":100,"delta_us":0}]}})";

constexpr std::string_view kCritQueue = R"({"crit":"queued","schema_version":1,
 "txns":[
  {"request":"c0-0","trace":3,"client":0,"ok":true,"start_us":0,"end_us":2000,
   "total_us":2000,"attributed_us":1900,"hops":1,"segments":[
    {"kind":"net_transit","node":0,"start_us":0,"dur_us":200,"detail":"core.ClientRequest"},
    {"kind":"submit_wait","node":1,"start_us":200,"dur_us":1500,"detail":"core/queue.wait"},
    {"kind":"storage_exec","node":1,"start_us":1700,"dur_us":200,"detail":"db/exec.op"},
    {"kind":"unattributed","node":-1,"start_us":1900,"dur_us":100}]},
  {"request":"c0-1","trace":4,"client":0,"ok":false,"start_us":3000,"end_us":9000,
   "total_us":6000,"attributed_us":0,"hops":0,"segments":[
    {"kind":"unattributed","node":-1,"start_us":3000,"dur_us":6000}]}],
 "summary":{"txns":1,"total_us":2000,"attributed_us":1900,"coverage":0.95,
  "segments":[
   {"kind":"submit_wait","txns_touched":1,"p50_us":1500,"p95_us":1500,"p99_us":1500,
    "mean_us":1500.0,"max_us":1500},
   {"kind":"net_transit","txns_touched":1,"p50_us":200,"p95_us":200,"p99_us":200,
    "mean_us":200.0,"max_us":200},
   {"kind":"storage_exec","txns_touched":1,"p50_us":200,"p95_us":200,"p99_us":200,
    "mean_us":200.0,"max_us":200},
   {"kind":"unattributed","txns_touched":1,"p50_us":100,"p95_us":100,"p99_us":100,
    "mean_us":100.0,"max_us":100}],
  "tail":[
   {"kind":"submit_wait","p50_us":1500,"p99_us":1500,"delta_us":0}]}})";

TEST_F(WaterfallCli, MatchesTheGoldenRendering) {
  write_file(dir_ / "CRIT_active-1.json", kCritActive);
  write_file(dir_ / "CRIT_queued.json", kCritQueue);
  const auto out = dir_ / "WF.md";
  ASSERT_EQ(run_report({"waterfall", "-o", out.string(), dir_.string()}), 0);
  const auto golden_path =
      fs::path(REPLI_SOURCE_DIR) / "tests" / "tools" / "goldens" / "waterfall.md";
  const auto golden = slurp(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path
                               << " — regenerate with: replikit-report waterfall DIR";
  EXPECT_EQ(slurp(out), golden)
      << "waterfall rendering drifted; if intentional, refresh the golden file";
}

// A baseline keeps only the summary: the summary sections render as from the
// whole file, and the sections that need per-transaction data say so.
TEST_F(WaterfallCli, SummaryOnlyCritRendersSummaryAndNamesTheMissingSections) {
  constexpr std::string_view kSummaryOnly = R"({"crit":"active-1","schema_version":1,
 "summary":{"txns":2,"total_us":700,"attributed_us":700,"coverage":1.0,
  "segments":[
   {"kind":"net_transit","txns_touched":2,"p50_us":250,"p95_us":300,"p99_us":300,
    "mean_us":250.0,"max_us":300}],
  "tail":[{"kind":"net_transit","p50_us":250,"p99_us":300,"delta_us":50}]}})";
  write_file(dir_ / "CRIT_active-1.json", kSummaryOnly);
  write_file(dir_ / "CRIT_queued.json", kCritQueue);
  const auto out = dir_ / "WF.md";
  ASSERT_EQ(run_report({"waterfall", "-o", out.string(), dir_.string()}), 0);
  const std::string md = slurp(out);
  const auto active = md.find("### `active-1`");
  const auto queued = md.find("### `queued`");
  ASSERT_NE(active, std::string::npos);
  ASSERT_NE(queued, std::string::npos);
  const std::string active_section = md.substr(active, queued - active);
  EXPECT_NE(active_section.find("coverage 100.0% (700 of 700 us attributed)"), std::string::npos);
  EXPECT_NE(active_section.find("| net_transit | 2 | 250 | 300 | 300 | 250.0 | 300 |"),
            std::string::npos);
  EXPECT_NE(active_section.find("**Tail differential**"), std::string::npos);
  EXPECT_NE(active_section.find("end-to-end latency and slowest transactions: not in a "
                                "summary-only CRIT file; they need a traced run"),
            std::string::npos);
  EXPECT_EQ(active_section.find("end-to-end latency: p50"), std::string::npos);
  EXPECT_EQ(active_section.find("Slowest transactions"), std::string::npos);
  // The whole file next to it still renders its per-transaction sections.
  EXPECT_NE(md.find("end-to-end latency: p50 2000 us", queued), std::string::npos);
  EXPECT_NE(md.find("| active-1 | 2 | 100.0% | - | - |"), std::string::npos);
  EXPECT_NE(md.find("| queued | 1 | 95.0% | 2000 | 2000 |"), std::string::npos);
  EXPECT_NE(md.find("p50/p99 marked `-`: not in a summary-only CRIT file"), std::string::npos);
}

TEST_F(WaterfallCli, ByteStableAcrossSameSeedReruns) {
  bench::WorkloadParams params;
  params.clients = 2;
  params.ops_per_client = 10;
  params.seed = 17;
  ::setenv("REPLI_TRACE", "1", 1);
  ::setenv("REPLI_LOG", "off", 1);
  std::array<std::string, 2> rendered;
  for (int run = 0; run < 2; ++run) {
    const auto run_dir = dir_ / ("run" + std::to_string(run));
    fs::create_directories(run_dir);
    ::setenv("REPLI_BENCH_DIR", run_dir.c_str(), 1);
    bench::run_workload(core::TechniqueKind::EagerPrimary, params);
    // The bench tags artifacts with a process-wide run counter; normalize
    // the filename so the two renders are comparable byte for byte.
    fs::path crit;
    for (const auto& entry : fs::directory_iterator(run_dir)) {
      if (entry.path().filename().string().rfind("CRIT_", 0) == 0) crit = entry.path();
    }
    ASSERT_FALSE(crit.empty()) << "bench emitted no CRIT artifact into " << run_dir;
    const auto normalized = run_dir / "CRIT_run.json";
    fs::rename(crit, normalized);
    const auto out = run_dir / "WF.md";
    ASSERT_EQ(run_report({"waterfall", normalized.string(), "-o", out.string()}), 0);
    rendered[static_cast<std::size_t>(run)] = slurp(out);
  }
  ::unsetenv("REPLI_BENCH_DIR");
  ::unsetenv("REPLI_TRACE");
  ASSERT_FALSE(rendered[0].empty());
  EXPECT_EQ(rendered[0], rendered[1]) << "same seed must render identical waterfalls";
}

}  // namespace
}  // namespace repli::tools

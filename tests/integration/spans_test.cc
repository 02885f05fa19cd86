// The observability layer end to end: a workload's span tree must (a) keep
// reproducing the paper's Fig 16 phase patterns through sim::pattern(),
// (b) nest lower-layer spans (gcs/, db/) inside the core/ phases that pay
// for them — at least three layers deep for the consensus- and WAL-backed
// techniques — and (c) export as Chrome trace JSON that parses and carries
// the same tree.
#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "obs/export_stats.hh"
#include "obs/json.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

class SpanTrees : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(SpanTrees, PhasePatternStillMatchesPaper) {
  // The phase model now rides on the span tracer; the Fig 16 patterns must
  // come out unchanged.
  const auto& info = technique_info(GetParam());
  Cluster cluster(testing::quiet_config(GetParam()));
  const auto reply = cluster.run_op(0, op_put("item-x", "update"));
  ASSERT_TRUE(reply.ok) << reply.result;
  cluster.settle(2 * sim::kSec);

  const auto requests = sim::requests(cluster.sim().tracer());
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(sim::pattern_to_string(sim::pattern(cluster.sim().tracer(), requests.front())),
            info.paper_pattern)
      << info.name;

  // Every phase event doubles as a span named for its phase (core/RE ..
  // core/END); other core/ spans (sub-phases, group commits) ride extra.
  std::size_t phase_spans = 0;
  for (const auto phase : {sim::Phase::Request, sim::Phase::ServerCoord, sim::Phase::Execution,
                           sim::Phase::AgreementCoord, sim::Phase::Response}) {
    phase_spans +=
        cluster.sim().tracer().named("core/" + std::string(sim::phase_abbrev(phase))).size();
  }
  EXPECT_EQ(phase_spans, sim::phases(cluster.sim().tracer()).size());
}

TEST_P(SpanTrees, ExecutionSpansNestInsideCorePhases) {
  Cluster cluster(testing::quiet_config(GetParam()));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(2 * sim::kSec);

  auto& tracer = cluster.sim().tracer();
  const auto ops = tracer.named("db/exec.op");
  ASSERT_FALSE(ops.empty()) << "no db/exec.op spans recorded";
  for (const auto* op : ops) {
    EXPECT_TRUE(tracer.has_ancestor_named(op->id, "core/"))
        << "db/exec.op at t=" << op->start << " on node " << op->node
        << " floats outside every core/ phase";
  }
}

TEST_P(SpanTrees, ChromeExportParsesAndKeepsEverySpan) {
  Cluster cluster(testing::quiet_config(GetParam()));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(2 * sim::kSec);
  auto& tracer = cluster.sim().tracer();
  tracer.close_open(cluster.sim().now());

  std::ostringstream os;
  obs::write_chrome_trace(tracer, os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t metadata = 0;
  std::size_t flow_events = 0;
  for (const auto& ev : events->array) {
    const auto& ph = ev.find("ph")->str;
    if (ph == "M") ++metadata;
    if (ph == "s" || ph == "f") ++flow_events;
  }
  EXPECT_EQ(events->array.size() - metadata - flow_events, tracer.size());
  // Message edges export as start/finish pairs.
  EXPECT_EQ(flow_events, 2 * tracer.flows().size());
}

TEST_P(SpanTrees, StatsExportIsParseableNdjson) {
  Cluster cluster(testing::quiet_config(GetParam()));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  std::ostringstream os;
  obs::write_stats_ndjson(cluster.sim().metrics(), os);
  std::istringstream in(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
  }
  EXPECT_GT(lines, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, SpanTrees,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

TEST(SpanTrees, SemiPassiveNestsThreeLayers) {
  // The acceptance chain: the semi-passive coordinator provides the value
  // *inside* an open consensus round, so the tree reads
  //   gcs/consensus.round -> core/EX -> db/exec.op.
  Cluster cluster(testing::quiet_config(TechniqueKind::SemiPassive));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(2 * sim::kSec);

  auto& tracer = cluster.sim().tracer();
  bool found_chain = false;
  for (const auto* op : tracer.named("db/exec.op")) {
    obs::SpanId walk = tracer.parent_of(op->id);
    bool saw_core = false;
    while (walk != obs::kNoSpan) {
      const auto& name = tracer.find(walk)->name;
      if (name.starts_with("core/")) saw_core = true;
      if (saw_core && name.starts_with("gcs/consensus.round")) {
        found_chain = true;
        break;
      }
      walk = tracer.parent_of(walk);
    }
    if (found_chain) break;
  }
  EXPECT_TRUE(found_chain)
      << "no db/exec.op span under core/* under gcs/consensus.round";
}

TEST(SpanTrees, EagerPrimaryWalFlushNestsUnderAgreementPhase) {
  // Second three-layer chain: the primary's commit application logs to the
  // WAL inside the AC apply phase: core/AC -> db/wal.flush.
  Cluster cluster(testing::quiet_config(TechniqueKind::EagerPrimary));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(2 * sim::kSec);

  auto& tracer = cluster.sim().tracer();
  const auto flushes = tracer.named("db/wal.flush");
  ASSERT_FALSE(flushes.empty()) << "eager-primary commit wrote no WAL flush span";
  bool nested = false;
  for (const auto* flush : flushes) {
    if (tracer.has_ancestor_named(flush->id, "core/AC")) nested = true;
  }
  EXPECT_TRUE(nested) << "db/wal.flush floats outside core/AC";

  // And the WAL metrics rode along, labeled per node.
  EXPECT_GT(cluster.sim().metrics().counter_value("db.wal.appends"), 0);
  EXPECT_GT(cluster.sim().metrics().counter_value("db.wal.bytes"), 0);
}

TEST(SpanTrees, ConsensusRoundsCarryOutcomeAttrs) {
  Cluster cluster(testing::quiet_config(TechniqueKind::SemiPassive));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  auto& tracer = cluster.sim().tracer();
  const auto rounds = tracer.named("gcs/consensus.round");
  ASSERT_FALSE(rounds.empty());
  bool decided = false;
  for (const auto* round : rounds) {
    for (const auto& [key, value] : round->attrs) {
      if (key == "outcome" && value == "decided") decided = true;
    }
  }
  EXPECT_TRUE(decided) << "no consensus round closed with outcome=decided";
  EXPECT_GT(cluster.sim().metrics().counter_value("gcs.consensus.rounds"), 0);
}

TEST(SpanTrees, LockWaitsAreSpannedUnderContention) {
  // Two clients hammer one key through update-everywhere locking: someone
  // must queue, and the wait becomes a db/lock.wait span plus histogram.
  auto cfg = testing::quiet_config(TechniqueKind::EagerLocking, 3, 2, 11);
  Cluster cluster(cfg);
  int outstanding = 2;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 6; ++i) {
      cluster.submit_op(c, op_add("hot", 1), [&outstanding](const ClientReply&) {});
    }
  }
  cluster.settle(10 * sim::kSec);
  (void)outstanding;

  auto& tracer = cluster.sim().tracer();
  EXPECT_FALSE(tracer.named("db/lock.wait").empty())
      << "contended run recorded no lock-wait spans";
  const auto* waits =
      cluster.sim().metrics().find_histogram("db.lock.wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_GT(waits->data().count(), 0u);
}

}  // namespace
}  // namespace repli::core

// Basic end-to-end behaviour of every technique: writes take effect, reads
// observe them, replicas converge, read-your-writes at the coordinating
// copy, exactly-once under client retry.
#include "core/cluster.hh"

#include <gtest/gtest.h>

#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

class EveryTechnique : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(EveryTechnique, PutThenGetRoundTrips) {
  Cluster cluster(testing::quiet_config(GetParam()));
  const auto put = cluster.run_op(0, op_put("k", "v1"));
  ASSERT_TRUE(put.ok) << put.result;
  EXPECT_EQ(put.result, "ok");
  const auto get = cluster.run_op(0, op_get("k"));
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(get.result, "v1") << "read-your-writes violated";
}

TEST_P(EveryTechnique, AllReplicasConvergeAfterSettle) {
  Cluster cluster(testing::quiet_config(GetParam()));
  for (int i = 0; i < 5; ++i) {
    const auto reply = cluster.run_op(0, op_put("key-" + std::to_string(i), "value"));
    ASSERT_TRUE(reply.ok) << reply.result;
  }
  cluster.settle(2 * sim::kSec);  // lazy propagation, trailing applies
  EXPECT_TRUE(cluster.converged()) << "replicas diverged";
  // And the data actually exists on every replica.
  for (int r = 0; r < cluster.replica_count(); ++r) {
    EXPECT_EQ(cluster.replica(r).storage().size(), 5u) << "replica " << r;
  }
}

TEST_P(EveryTechnique, CounterAccumulatesSequentially) {
  Cluster cluster(testing::quiet_config(GetParam()));
  for (int i = 1; i <= 4; ++i) {
    const auto reply = cluster.run_op(0, op_add("counter", 5));
    ASSERT_TRUE(reply.ok) << reply.result;
    EXPECT_EQ(reply.result, std::to_string(5 * i));
  }
}

TEST_P(EveryTechnique, MissingKeyReadsEmpty) {
  Cluster cluster(testing::quiet_config(GetParam()));
  const auto reply = cluster.run_op(0, op_get("never-written"));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.result, "");
}

TEST_P(EveryTechnique, TwoClientsBothServed) {
  auto cfg = testing::quiet_config(GetParam(), 3, 2);
  Cluster cluster(cfg);
  const auto r0 = cluster.run_op(0, op_put("a", "from-0"));
  const auto r1 = cluster.run_op(1, op_put("b", "from-1"));
  ASSERT_TRUE(r0.ok) << r0.result;
  ASSERT_TRUE(r1.ok) << r1.result;
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  const auto a = cluster.run_op(1, op_get("a"));
  EXPECT_TRUE(a.ok);
}

TEST_P(EveryTechnique, HistoryRecordsCompletedOps) {
  Cluster cluster(testing::quiet_config(GetParam()));
  cluster.run_op(0, op_put("k", "v"));
  cluster.run_op(0, op_get("k"));
  EXPECT_EQ(cluster.history().completed_ok(), 2u);
  EXPECT_EQ(cluster.history().ops().size(), 2u);
  EXPECT_GT(cluster.history().ops()[0].response, cluster.history().ops()[0].invoke);
}

TEST_P(EveryTechnique, SingleReplicaDegenerateCase) {
  Cluster cluster(testing::quiet_config(GetParam(), /*replicas=*/1));
  const auto put = cluster.run_op(0, op_put("solo", "x"));
  ASSERT_TRUE(put.ok) << put.result;
  const auto get = cluster.run_op(0, op_get("solo"));
  EXPECT_EQ(get.result, "x");
}

TEST_P(EveryTechnique, FiveReplicasStillCorrect) {
  Cluster cluster(testing::quiet_config(GetParam(), /*replicas=*/5));
  const auto put = cluster.run_op(0, op_put("k", "v"));
  ASSERT_TRUE(put.ok) << put.result;
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  for (int r = 0; r < 5; ++r) {
    const auto rec = cluster.replica(r).storage().get("k");
    ASSERT_TRUE(rec.has_value()) << "replica " << r << " missing the write";
    EXPECT_EQ(rec->value, "v");
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, EveryTechnique,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

// A transaction whose second operation names no registered procedure
// fails in EX: the client hears the error, and neither the first
// operation's write nor an execution span is left behind. Covers the
// techniques that run a whole request's EX in one step, eager primary copy
// in its group-commit form (batch > 1).
class FailedExecution : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(FailedExecution, IsAnsweredAndNotCommitted) {
  auto cfg = testing::quiet_config(GetParam());
  if (GetParam() == TechniqueKind::EagerPrimary) cfg.batch_max_ops = 4;
  Cluster cluster(cfg);
  const auto before = cluster.storage_digests();
  db::Operation bad;
  bad.proc = "no_such_proc";
  bad.write_set = {"k"};
  const auto reply = cluster.run_txn(0, {op_put("k", "v"), bad});
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.result, "ProcRegistry: unknown procedure no_such_proc");
  cluster.settle(2 * sim::kSec);
  EXPECT_EQ(cluster.storage_digests(), before);
  for (int r = 0; r < cluster.replica_count(); ++r) {
    EXPECT_EQ(cluster.replica(r).storage().size(), 0u) << "replica " << r;
  }
  EXPECT_TRUE(cluster.history().commits().empty());
  EXPECT_TRUE(cluster.sim().tracer().named("db/exec.op").empty());
}

INSTANTIATE_TEST_SUITE_P(WholeRequestEx, FailedExecution,
                         ::testing::Values(TechniqueKind::Certification,
                                           TechniqueKind::LazyPrimary,
                                           TechniqueKind::LazyEverywhere,
                                           TechniqueKind::EagerPrimary),
                         testing::kind_param_name);

// A read-only request installs an empty writeset where the technique
// applies every request's writeset (passive, semi-passive): each replica's
// commit sequence moves on, but the history records no commit.
TEST(Cluster, EmptyWritesetTakesACommitSeqButRecordsNoCommit) {
  for (const auto kind : {TechniqueKind::Passive, TechniqueKind::SemiPassive}) {
    Cluster cluster(testing::quiet_config(kind));
    const auto get = cluster.run_op(0, op_get("k"));
    ASSERT_TRUE(get.ok) << technique_name(kind) << ": " << get.result;
    cluster.settle(2 * sim::kSec);
    EXPECT_TRUE(cluster.history().commits().empty()) << technique_name(kind);
    for (int r = 0; r < cluster.replica_count(); ++r) {
      EXPECT_EQ(cluster.replica(r).storage().last_commit_seq(), 1u)
          << technique_name(kind) << " replica " << r;
    }
  }
}

TEST(Cluster, MessageAccountingIsLive) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  cluster.run_op(0, op_put("k", "v"));
  EXPECT_GT(cluster.sim().net().messages_sent(), 0);
  EXPECT_GT(cluster.sim().net().bytes_sent(), 0);
}

TEST(Cluster, ActiveWithConsensusAbcastAlsoWorks) {
  auto cfg = testing::quiet_config(TechniqueKind::Active);
  cfg.active_abcast_impl = 1;  // consensus-based ordering
  Cluster cluster(cfg);
  const auto put = cluster.run_op(0, op_put("k", "via-consensus"));
  ASSERT_TRUE(put.ok) << put.result;
  const auto get = cluster.run_op(0, op_get("k"));
  EXPECT_EQ(get.result, "via-consensus");
}

}  // namespace
}  // namespace repli::core

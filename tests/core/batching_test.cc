// The batched replication fast path, checked end to end: batching must be
// deterministic, a batch of one must flush at once (no layer waits out the
// flush window), runs at batch 1 and batch 8 must stay convergent and
// one-copy serializable, and batching must actually reduce per-operation
// traffic.
#include <gtest/gtest.h>

#include "check/serializability.hh"
#include "core/cluster.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

struct RunFingerprint {
  std::vector<std::uint64_t> digests;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::vector<sim::Time> latencies;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_once(TechniqueKind kind, std::uint64_t seed, int batch_max_ops,
                        std::int64_t batch_flush_us = 200) {
  ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 3;
  cfg.seed = seed;
  cfg.batch_max_ops = batch_max_ops;
  cfg.batch_flush_us = batch_flush_us;
  Cluster cluster(cfg);
  util::Rng rng(seed);
  int outstanding = 0;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 6; ++i) {
      const auto key = "k" + std::to_string(rng.uniform(0, 3));
      // Values stay numeric: `add` on a key previously `put` must still parse.
      const auto op = i % 2 == 0 ? op_add(key, 1) : op_put(key, std::to_string(i * 10));
      ++outstanding;
      const auto at = cluster.sim().now() + rng.uniform(0, 5) * sim::kMsec;
      cluster.sim().schedule_at(at, [&cluster, c, op, &outstanding] {
        cluster.submit_op(c, op, [&outstanding](const ClientReply&) { --outstanding; });
      });
    }
  }
  for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0) << "requests left unanswered";
  cluster.settle(2 * sim::kSec);
  RunFingerprint fp;
  fp.digests = cluster.storage_digests();
  fp.messages = cluster.sim().net().messages_sent();
  fp.bytes = cluster.sim().net().bytes_sent();
  for (const auto& op : cluster.history().ops()) fp.latencies.push_back(op.response - op.invoke);
  return fp;
}

class BatchingDeterminism : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(BatchingDeterminism, SameSeedAndKnobsSameRun) {
  const auto a = run_once(GetParam(), 42, 8);
  const auto b = run_once(GetParam(), 42, 8);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.latencies, b.latencies);
}

TEST_P(BatchingDeterminism, BatchOfOneIsBitIdenticalToUnbatched) {
  // A batch of one is a group of one that flushes at once: no layer may
  // wait out the flush window, so the window cannot change a single digest,
  // message, byte or latency.
  const auto short_window = run_once(GetParam(), 42, 1, 200);
  const auto long_window = run_once(GetParam(), 42, 1, 50'000);
  EXPECT_EQ(short_window, long_window);
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, BatchingDeterminism,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

void check_batched_run(TechniqueKind kind, int batch_max_ops) {
  ClusterConfig cfg = testing::quiet_config(kind, 3, 4, 7);
  cfg.batch_max_ops = batch_max_ops;
  Cluster cluster(cfg);
  util::Rng rng(7);
  int outstanding = 0;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 6; ++i) {
      const auto key = "k" + std::to_string(rng.uniform(0, 2));
      const auto op = i % 3 == 0 ? op_get(key) : op_add(key, 1);
      ++outstanding;
      const auto at = cluster.sim().now() + rng.uniform(0, 10) * sim::kMsec;
      cluster.sim().schedule_at(at, [&cluster, c, op, &outstanding] {
        cluster.submit_op(c, op, [&outstanding](const ClientReply&) { --outstanding; });
      });
    }
  }
  for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0) << "requests left unanswered under batching";
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged()) << "batched run diverged";
  const auto report = check::check_one_copy_serializability(cluster.history());
  EXPECT_TRUE(report.serializable) << report.violation;
  EXPECT_TRUE(report.write_orders_agree) << report.violation;
  EXPECT_GT(report.transactions, 0u);
}

class BatchedCorrectness : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(BatchedCorrectness, BatchedRunsConvergeAndStaySerializable) {
  // Batch 1 covers the group-of-one commit path, batch 8 real groups.
  for (const int batch_max_ops : {1, 8}) {
    SCOPED_TRACE("batch_max_ops=" + std::to_string(batch_max_ops));
    check_batched_run(GetParam(), batch_max_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(StrongTechniques, BatchedCorrectness,
                         ::testing::ValuesIn(testing::strong_kinds()),
                         testing::kind_param_name);

TEST(BatchingTraffic, ActiveReplicationSendsFewerMessagesPerOpWhenBatched) {
  auto msgs_per_op = [](int batch_max_ops) {
    ClusterConfig cfg;
    cfg.kind = TechniqueKind::Active;
    cfg.replicas = 3;
    cfg.clients = 6;
    cfg.seed = 5;
    cfg.batch_max_ops = batch_max_ops;
    Cluster cluster(cfg);
    int outstanding = 0;
    const int total = 48;
    for (int i = 0; i < total; ++i) {
      ++outstanding;
      cluster.submit_op(i % 6, op_add("k" + std::to_string(i % 4), 1),
                        [&outstanding](const ClientReply&) { --outstanding; });
    }
    for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
      cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
    }
    EXPECT_EQ(outstanding, 0);
    cluster.settle(1 * sim::kSec);
    return static_cast<double>(cluster.sim().net().messages_excluding("gcs.Heartbeat")) / total;
  };
  const double unbatched = msgs_per_op(1);
  const double batched = msgs_per_op(8);
  EXPECT_LT(batched * 2.0, unbatched)
      << "batch=8 should at least halve msgs/op (got " << batched << " vs " << unbatched << ")";
}

}  // namespace
}  // namespace repli::core

// Tests for the configurable design options: read-one/write-all reads in
// the locking technique, and the lazy reconciliation policies.
#include <gtest/gtest.h>

#include "check/linearizability.hh"
#include "check/serializability.hh"
#include "core/cluster.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

TEST(Rowa, ReadOnlyOpsStayLocal) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerLocking);
  cfg.locking_read_one_write_all = true;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  const auto msgs_before = cluster.sim().net().messages_excluding("gcs.Heartbeat");
  const auto read = cluster.run_op(0, op_get("k"));
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.result, "v");
  const auto msgs_for_read = cluster.sim().net().messages_excluding("gcs.Heartbeat") - msgs_before;
  // Local locks + local execution + local commit: only the client round
  // trip touches the wire.
  EXPECT_LE(msgs_for_read, 2) << "ROWA read should not involve other replicas";
}

TEST(Rowa, DisabledReadsLockEverywhere) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerLocking);
  cfg.locking_read_one_write_all = false;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  const auto msgs_before = cluster.sim().net().messages_excluding("gcs.Heartbeat");
  const auto read = cluster.run_op(0, op_get("k"));
  ASSERT_TRUE(read.ok);
  const auto msgs_for_read = cluster.sim().net().messages_excluding("gcs.Heartbeat") - msgs_before;
  EXPECT_GT(msgs_for_read, 6) << "without ROWA a read pays lock+exec rounds everywhere";
}

TEST(Rowa, ReadLatencyBeatsLockEverywhere) {
  auto measure_read = [](bool rowa) {
    auto cfg = testing::quiet_config(TechniqueKind::EagerLocking);
    cfg.locking_read_one_write_all = rowa;
    Cluster cluster(cfg);
    cluster.run_op(0, op_put("k", "v"));
    const auto t0 = cluster.sim().now();
    cluster.run_op(0, op_get("k"));
    const auto& rec = cluster.history().ops().back();
    (void)t0;
    return rec.response - rec.invoke;
  };
  EXPECT_LT(measure_read(true), measure_read(false));
}

TEST(Rowa, MixedTransactionStillSerializable) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerLocking, 3, 2);
  cfg.locking_read_one_write_all = true;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("balance", "100")).ok);
  // Mixed read+write transactions from two clients.
  int outstanding = 4;
  for (int i = 0; i < 4; ++i) {
    cluster.submit(i % 2, {op_get("balance"), op_add("balance", 10)},
                   [&outstanding](const ClientReply& r) {
                     EXPECT_TRUE(r.ok) << r.result;
                     --outstanding;
                   });
  }
  for (int rounds = 0; rounds < 6000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0);
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  const auto read = cluster.run_op(0, op_get("balance"), 60 * sim::kSec);
  EXPECT_EQ(read.result, "140");
  const auto report = check::check_one_copy_serializability(cluster.history());
  EXPECT_TRUE(report.serializable) << report.violation;
}

class LazyPolicies : public ::testing::TestWithParam<int> {};

TEST_P(LazyPolicies, ConvergesUnderConcurrentConflicts) {
  auto cfg = testing::quiet_config(TechniqueKind::LazyEverywhere, 3, 3, 23);
  cfg.lazy_reconciliation = GetParam();
  cfg.lazy_propagation_delay = 20 * sim::kMsec;
  Cluster cluster(cfg);
  int outstanding = 9;
  for (int i = 0; i < 9; ++i) {
    cluster.submit_op(i % 3, op_put("hot", "w" + std::to_string(i)),
                      [&outstanding](const ClientReply&) { --outstanding; });
  }
  for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0);
  cluster.settle(5 * sim::kSec);
  EXPECT_TRUE(cluster.converged()) << "policy " << GetParam() << " failed to reconcile";
  // One of the nine writes won everywhere.
  const auto final0 = cluster.replica(0).storage().get("hot");
  ASSERT_TRUE(final0.has_value());
  EXPECT_TRUE(final0->value.starts_with("w"));
}

TEST_P(LazyPolicies, IndependentKeysAllSurvive) {
  auto cfg = testing::quiet_config(TechniqueKind::LazyEverywhere, 3, 3, 29);
  cfg.lazy_reconciliation = GetParam();
  Cluster cluster(cfg);
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(cluster.run_op(c, op_put("own-" + std::to_string(c), "v")).ok);
  }
  cluster.settle(5 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const auto rec = cluster.replica(r).storage().get("own-" + std::to_string(c));
      ASSERT_TRUE(rec.has_value()) << "replica " << r << " missing own-" << c;
      EXPECT_EQ(rec->value, "v");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LazyPolicies, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("abcast_order")
                                                  : std::string("timestamp_lww");
                         });

TEST(LazyPolicies, LwwCountsLostConcurrentUpdates) {
  auto cfg = testing::quiet_config(TechniqueKind::LazyEverywhere, 3, 3, 31);
  cfg.lazy_reconciliation = 1;
  cfg.lazy_propagation_delay = 50 * sim::kMsec;
  Cluster cluster(cfg);
  int outstanding = 3;
  for (int c = 0; c < 3; ++c) {
    cluster.submit_op(c, op_put("contested", "from-" + std::to_string(c)),
                      [&outstanding](const ClientReply&) { --outstanding; });
  }
  cluster.settle(5 * sim::kSec);
  EXPECT_EQ(outstanding, 0);
  EXPECT_TRUE(cluster.converged());
  EXPECT_GT(cluster.sim().metrics().counter_value("lazy.undone"), 0);
}

TEST(LazyPolicies, LwwUsesFewerMessagesThanAbcastOrder) {
  auto messages = [](int policy) {
    auto cfg = testing::quiet_config(TechniqueKind::LazyEverywhere, 3, 1, 37);
    cfg.lazy_reconciliation = policy;
    Cluster cluster(cfg);
    for (int i = 0; i < 8; ++i) cluster.run_op(0, op_put("k" + std::to_string(i), "v"));
    cluster.settle(3 * sim::kSec);
    EXPECT_TRUE(cluster.converged());
    return cluster.sim().net().messages_excluding("gcs.Heartbeat");
  };
  EXPECT_LT(messages(1), messages(0))
      << "LWW should skip the ordering traffic the abcast policy pays";
}

TEST(CertificationLocalReads, ReadsSkipTheBroadcast) {
  auto cfg = testing::quiet_config(TechniqueKind::Certification);
  cfg.certification_local_reads = true;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  const auto msgs_before = cluster.sim().net().messages_excluding("gcs.Heartbeat");
  const auto read = cluster.run_op(0, op_get("k"));
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.result, "v");
  const auto msgs_for_read =
      cluster.sim().net().messages_excluding("gcs.Heartbeat") - msgs_before;
  EXPECT_LE(msgs_for_read, 2) << "[KA98] local read must not hit the ABCAST";
}

TEST(CertificationLocalReads, ReadLatencyDrops) {
  auto read_latency = [](bool local) {
    auto cfg = testing::quiet_config(TechniqueKind::Certification);
    cfg.certification_local_reads = local;
    Cluster cluster(cfg);
    cluster.run_op(0, op_put("k", "v"));
    cluster.run_op(0, op_get("k"));
    const auto& rec = cluster.history().ops().back();
    return rec.response - rec.invoke;
  };
  EXPECT_LT(read_latency(true), read_latency(false));
}

TEST(CertificationLocalReads, WritesStillCertifiedAndConsistent) {
  auto cfg = testing::quiet_config(TechniqueKind::Certification, 3, 3, 83);
  cfg.certification_local_reads = true;
  Cluster cluster(cfg);
  int outstanding = 9;
  for (int i = 0; i < 9; ++i) {
    cluster.submit_op(i % 3, op_add("hot", 1),
                      [&outstanding](const ClientReply& r) {
                        EXPECT_TRUE(r.ok);
                        --outstanding;
                      });
  }
  for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0);
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  const auto get = cluster.run_op(0, op_get("hot"), 60 * sim::kSec);
  EXPECT_EQ(get.result, "9");
}

TEST(OptimisticAbcast, SerialWorkloadHitsAndMatchesConservative) {
  auto run = [](bool optimistic) {
    auto cfg = testing::quiet_config(TechniqueKind::EagerAbcast);
    cfg.eager_abcast_optimistic = optimistic;
    Cluster cluster(cfg);
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(cluster.run_op(0, op_add("n", 2)).ok);
    }
    cluster.settle(2 * sim::kSec);
    EXPECT_TRUE(cluster.converged());
    return cluster.replica(0).storage().get("n")->value;
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), "12");
}

TEST(OptimisticAbcast, TentativeExecutionValidatesAtLowContention) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerAbcast);
  cfg.eager_abcast_optimistic = true;
  Cluster cluster(cfg);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.run_op(0, op_put("k" + std::to_string(i), "v")).ok);
  }
  // Blind writes validate trivially; RMW against distinct keys should too.
  EXPECT_GT(cluster.sim().metrics().counter_value("optimistic.hits"), 0);
}

TEST(OptimisticAbcast, ReducesResponseTime) {
  auto latency = [](bool optimistic) {
    auto cfg = testing::quiet_config(TechniqueKind::EagerAbcast, 3, 2);
    cfg.eager_abcast_optimistic = optimistic;
    Cluster cluster(cfg);
    double total = 0;
    for (int i = 0; i < 10; ++i) {
      // Client 1's home (replica 1) is not the sequencer: its operations
      // benefit from overlapping execution with the ordering round.
      EXPECT_TRUE(cluster.run_op(1, op_put("k" + std::to_string(i), "v"), 60 * sim::kSec).ok);
    }
    for (const auto& op : cluster.history().ops()) {
      total += static_cast<double>(op.response - op.invoke);
    }
    return total / 10;
  };
  EXPECT_LT(latency(true), latency(false))
      << "optimistic processing should hide execution behind ordering [KPAS99a]";
}

TEST(OptimisticAbcast, ConflictingConcurrencyStaysConsistent) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerAbcast, 3, 3, 71);
  cfg.eager_abcast_optimistic = true;
  Cluster cluster(cfg);
  int outstanding = 12;
  for (int i = 0; i < 12; ++i) {
    cluster.submit_op(i % 3, op_add("hot", 1),
                      [&outstanding](const ClientReply& r) {
                        EXPECT_TRUE(r.ok);
                        --outstanding;
                      });
  }
  for (int rounds = 0; rounds < 3000 && outstanding > 0; ++rounds) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(outstanding, 0);
  cluster.settle(2 * sim::kSec);
  EXPECT_TRUE(cluster.converged());
  // RMW on one hot key from three homes: misses must occur and be redone
  // correctly — the final counter is exact and histories check out.
  const auto get = cluster.run_op(0, op_get("hot"), 60 * sim::kSec);
  EXPECT_EQ(get.result, "12");
  EXPECT_GT(cluster.sim().metrics().counter_value("optimistic.misses"), 0)
      << "a contended RMW workload should mis-speculate sometimes";
  const auto lin = check::check_linearizability(cluster.history());
  EXPECT_TRUE(lin.linearizable) << lin.violation;
  const auto sr = check::check_one_copy_serializability(cluster.history());
  EXPECT_TRUE(sr.serializable) << sr.violation;
}

}  // namespace
}  // namespace repli::core

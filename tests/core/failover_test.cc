// Failure behaviour: the failure-transparency axis of Fig. 5, primary
// failover, the 2PC blocking window, and exactly-once under retries.
#include <gtest/gtest.h>

#include <optional>

#include "core/cluster.hh"
#include "core/eager_primary.hh"
#include "core/passive.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

TEST(Failover, ActiveReplicationMasksReplicaCrash) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "before")).ok);
  cluster.crash_replica(2);  // not the sequencer
  const auto reply = cluster.run_op(0, op_put("k", "after"));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(cluster.client(0).timeouts(), 0)
      << "active replication must hide the crash from the client (Fig. 5)";
}

TEST(Failover, ActiveReplicationSurvivesSequencerCrash) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "before")).ok);
  cluster.crash_replica(0);  // the sequencer
  cluster.settle(500 * sim::kMsec);  // failure detection + takeover
  const auto reply = cluster.run_op(0, op_put("k", "after"), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok) << reply.result;
  const auto get = cluster.run_op(0, op_get("k"));
  EXPECT_EQ(get.result, "after");
}

TEST(Failover, SemiPassiveMasksCoordinatorCrash) {
  Cluster cluster(testing::quiet_config(TechniqueKind::SemiPassive));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "before")).ok);
  cluster.crash_replica(0);  // round-0 consensus coordinator
  const auto reply = cluster.run_op(0, op_put("k", "after"), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok) << reply.result;
  EXPECT_EQ(cluster.client(0).timeouts(), 0)
      << "semi-passive tolerates coordinator crashes without client retries";
}

TEST(Failover, PassivePrimaryCrashPromotesBackupAndClientRetries) {
  auto cfg = testing::quiet_config(TechniqueKind::Passive);
  cfg.client_retry_timeout = 100 * sim::kMsec;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "committed-before")).ok);

  cluster.crash_replica(0);
  cluster.settle(1 * sim::kSec);  // failure detection + view change
  auto& survivor = dynamic_cast<PassiveReplica&>(cluster.replica(1));
  EXPECT_TRUE(survivor.is_primary());
  EXPECT_GE(survivor.view().id, 1u);

  const auto reply = cluster.run_op(0, op_put("k2", "after-failover"), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok) << reply.result;
  // The client noticed (timeout or redirect): not failure-transparent.
  const auto get = cluster.run_op(0, op_get("k"));
  EXPECT_EQ(get.result, "committed-before") << "committed state lost in failover";
}

TEST(Failover, PassiveCommittedDataSurvivesPrimaryCrash) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    auto cfg = testing::quiet_config(TechniqueKind::Passive, 3, 1, seed);
    cfg.client_retry_timeout = 100 * sim::kMsec;
    Cluster cluster(cfg);
    // Commit a handful, then crash the primary *while* a request is running.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(cluster.run_op(0, op_put("k" + std::to_string(i), "v")).ok);
    }
    bool done = false;
    cluster.submit_op(0, op_put("k-inflight", "v"), [&done](const ClientReply&) { done = true; });
    cluster.sim().schedule_after(150, [&cluster] { cluster.crash_replica(0); });
    for (int rounds = 0; rounds < 1000 && !done; ++rounds) {
      cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
    }
    EXPECT_TRUE(done) << "in-flight request never completed after failover, seed " << seed;
    cluster.settle(1 * sim::kSec);
    // Every previously-acknowledged write is still readable.
    for (int i = 0; i < 3; ++i) {
      const auto get = cluster.run_op(0, op_get("k" + std::to_string(i)), 60 * sim::kSec);
      EXPECT_EQ(get.result, "v") << "lost committed write k" << i << ", seed " << seed;
    }
    // Survivors agree with each other.
    EXPECT_TRUE(cluster.converged()) << "seed " << seed;
  }
}

TEST(Failover, EagerPrimaryHotStandbyTakesOver) {
  auto cfg = testing::quiet_config(TechniqueKind::EagerPrimary);
  cfg.client_retry_timeout = 150 * sim::kMsec;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v1")).ok);

  cluster.crash_replica(0);
  cluster.settle(1 * sim::kSec);
  auto& standby = dynamic_cast<EagerPrimaryReplica&>(cluster.replica(1));
  EXPECT_TRUE(standby.is_primary());

  const auto reply = cluster.run_op(0, op_put("k", "v2"), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok) << reply.result;
  const auto get = cluster.run_op(0, op_get("k"), 60 * sim::kSec);
  EXPECT_EQ(get.result, "v2");
  EXPECT_GT(cluster.client(0).timeouts(), 0) << "DB failover is client-visible (§4.1)";
}

TEST(Failover, EagerPrimaryBackupSuspectingTheOtherBackupKeepsThePrimarysChange) {
  // Crash backup 2 in the first 500 us of a put, before it acks the
  // shipped change (a later crash leaves the prepare without its vote, and
  // 2PC aborts). The primary stops awaiting that ack once it suspects the
  // backup and prepares with backup 1 alone. Backup 1 suspects backup 2 at
  // about the same time; it must keep the live primary's staged change and
  // commit the put (dropping it either commits the put with no writes or,
  // voting no, aborts it).
  for (sim::Time at = 0; at <= 500; at += 50) {
    Cluster cluster(testing::quiet_config(TechniqueKind::EagerPrimary));
    ASSERT_TRUE(cluster.run_op(0, op_put("k", "v1")).ok);
    std::optional<ClientReply> reply;
    cluster.submit_op(0, op_put("k", "v2"), [&reply](const ClientReply& r) { reply = r; });
    cluster.sim().schedule_after(at, [&cluster] { cluster.crash_replica(2); });
    cluster.settle(1 * sim::kSec);
    ASSERT_TRUE(reply.has_value()) << "the put stalled, crash at +" << at << " us";
    EXPECT_TRUE(reply->ok) << reply->result << ", crash at +" << at << " us";
    EXPECT_TRUE(cluster.converged()) << "crash at +" << at << " us";
    EXPECT_EQ(cluster.replica(1).storage().get("k")->value, "v2") << "crash at +" << at << " us";
  }
}

TEST(Failover, EagerPrimaryPrepareWhoseChangeNeverArrivedGetsANoVote) {
  // Out of the fault model on purpose: cut backup 1 off for 30 ms (three
  // suspicion timeouts) right after the primary collected every ship ack,
  // so the prepare is still in flight. Backup 1 suspects the primary and
  // drops its staged change; after the heal the prepare arrives. Voting yes
  // would commit the put everywhere but at backup 1.
  Cluster cluster(testing::quiet_config(TechniqueKind::EagerPrimary));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v1")).ok);
  const auto ship_rounds = [&cluster] {
    std::size_t n = 0;
    for (const auto& s : cluster.sim().tracer().spans()) n += s.name == "core/ac.ship";
    return n;
  };
  const auto before = ship_rounds();
  std::optional<ClientReply> reply;
  cluster.submit_op(0, op_put("k", "v2"), [&reply](const ClientReply& r) { reply = r; });
  // 10 us steps: far shorter than the 100 us one-way latency of the prepare.
  for (int step = 0; ship_rounds() == before; ++step) {
    ASSERT_LT(step, 10000) << "the put never finished its ship round";
    cluster.sim().run_until(cluster.sim().now() + 10);
  }
  auto& net = cluster.sim().net();
  net.set_partition([](sim::NodeId from, sim::NodeId to) { return (from == 1) != (to == 1); });
  cluster.sim().schedule_after(30 * sim::kMsec, [&net] { net.set_partition(nullptr); });
  cluster.settle(2 * sim::kSec);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok) << "backup 1 voted yes without the change";
  EXPECT_EQ(reply->result, "aborted");
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.replica(1).storage().get("k")->value, "v1");
}

TEST(Failover, TwoPhaseCommitBlockingWindowIsObservable) {
  // Crash the eager-primary coordinator between votes and decision: the
  // backups must sit in doubt until the termination protocol resolves them.
  auto cfg = testing::quiet_config(TechniqueKind::EagerPrimary);
  Cluster cluster(cfg);
  bool got_reply = false;
  cluster.submit_op(0, op_put("k", "v"), [&got_reply](const ClientReply&) { got_reply = true; });
  // Let execution + shipping + votes happen, then kill the coordinator
  // right around the decision point.
  cluster.settle(700);
  cluster.crash_replica(0);
  cluster.settle(5 * sim::kSec);
  // Survivors resolved the in-doubt transaction one way or the other
  // (termination protocol) and agree with each other.
  EXPECT_TRUE(cluster.converged());
  (void)got_reply;  // the client may or may not have been answered: crash timing
}

TEST(Failover, LazyPrimarySecondariesKeepServingReads) {
  auto cfg = testing::quiet_config(TechniqueKind::LazyPrimary, 3, 2);
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(1 * sim::kSec);  // propagate
  cluster.crash_replica(0);      // primary gone
  // Client 1 reads at its home secondary: lazy replication's availability win.
  const auto get = cluster.run_op(1, op_get("k"));
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(get.result, "v");
}

TEST(Failover, ClientGivesUpAfterMaxAttempts) {
  auto cfg = testing::quiet_config(TechniqueKind::Passive, 1, 1);
  cfg.client_retry_timeout = 50 * sim::kMsec;
  cfg.client_max_attempts = 3;
  Cluster cluster(cfg);
  cluster.crash_replica(0);  // nobody left to answer
  const auto reply = cluster.run_op(0, op_put("k", "v"), 60 * sim::kSec);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.result, "timeout");
}

TEST(Failover, HomeClientKeepsTheServerThatAnsweredAfterItsHomeCrashed) {
  for (const auto kind : {TechniqueKind::EagerLocking, TechniqueKind::EagerAbcast,
                          TechniqueKind::LazyEverywhere, TechniqueKind::Certification}) {
    auto cfg = testing::quiet_config(kind);
    cfg.client_retry_timeout = 150 * sim::kMsec;
    Cluster cluster(cfg);
    ASSERT_TRUE(cluster.run_op(0, op_put("k", "v0")).ok);
    cluster.crash_replica(0);  // client 0's home
    for (int i = 1; i <= 5; ++i) {
      const auto reply = cluster.run_op(0, op_put("k", "v" + std::to_string(i)), 60 * sim::kSec);
      ASSERT_TRUE(reply.ok) << technique_name(kind) << ": " << reply.result;
    }
    EXPECT_EQ(cluster.client(0).timeouts(), 1)
        << technique_name(kind) << ": only the first request may wait on the dead home";
  }
}

TEST(Failover, ExactlyOnceUnderClientRetries) {
  // Aggressive retry timeout forces duplicate submissions; the reply cache
  // must keep the counter from double-counting.
  auto cfg = testing::quiet_config(TechniqueKind::EagerPrimary);
  cfg.client_retry_timeout = 2 * sim::kMsec;  // far below one round trip
  Cluster cluster(cfg);
  const auto reply = cluster.run_op(0, op_add("counter", 1), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok);
  cluster.settle(1 * sim::kSec);
  const auto get = cluster.run_op(0, op_get("counter"), 60 * sim::kSec);
  EXPECT_EQ(get.result, "1") << "duplicate execution under client retries";
}

}  // namespace
}  // namespace repli::core

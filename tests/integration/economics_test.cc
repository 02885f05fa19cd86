// The paper's qualitative cost claims, pinned as executable assertions:
// lazy replies faster than eager; eager pays its coordination before the
// reply; active replication burns CPU everywhere while passive only applies
// at the backups; locking pays more messages than lazy.
#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

struct Economics {
  double mean_latency_us = 0;
  double msgs_per_op = 0;
};

Economics measure(TechniqueKind kind, std::uint64_t seed = 29) {
  ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 1;
  cfg.seed = seed;
  Cluster cluster(cfg);
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const auto reply = cluster.run_op(0, op_put("k" + std::to_string(i), "v"), 60 * sim::kSec);
    EXPECT_TRUE(reply.ok);
  }
  Economics out;
  double total = 0;
  for (const auto& op : cluster.history().ops()) {
    total += static_cast<double>(op.response - op.invoke);
  }
  out.mean_latency_us = total / n;
  out.msgs_per_op =
      static_cast<double>(cluster.sim().net().messages_excluding("gcs.Heartbeat")) / n;
  return out;
}

TEST(Economics, LazyRepliesFasterThanCoordinationHeavyTechniques) {
  // §4.2: eager "is expensive in terms of message overhead and response
  // time". The structural gap is against techniques with an agreement round
  // before the reply; the ABCAST-based ones are only marginally slower than
  // lazy (ordering overlaps execution), so those get a tolerance instead.
  const auto lazy = measure(TechniqueKind::LazyPrimary);
  for (const auto kind : {TechniqueKind::Passive, TechniqueKind::EagerPrimary,
                          TechniqueKind::EagerLocking, TechniqueKind::SemiPassive}) {
    const auto eager = measure(kind);
    EXPECT_LT(lazy.mean_latency_us, eager.mean_latency_us)
        << "lazy should beat " << technique_name(kind) << " on response time (§4.2)";
  }
  for (const auto kind : {TechniqueKind::Active, TechniqueKind::EagerAbcast,
                          TechniqueKind::Certification}) {
    const auto eager = measure(kind);
    EXPECT_LT(lazy.mean_latency_us, eager.mean_latency_us * 1.25)
        << "lazy should be at least competitive with " << technique_name(kind);
  }
}

TEST(Economics, LazyPrimaryUsesFewestMessages) {
  const auto lazy = measure(TechniqueKind::LazyPrimary);
  for (const auto& info : all_techniques()) {
    if (info.kind == TechniqueKind::LazyPrimary) continue;
    const auto other = measure(info.kind);
    EXPECT_LE(lazy.msgs_per_op, other.msgs_per_op)
        << "lazy primary copy should be cheapest in messages, vs " << info.name;
  }
}

TEST(Economics, TwoPhaseCommitCostsMoreLatencyThanAbcastOrdering) {
  // §4.4.2's argument for ABCAST-based replication: skipping the AC round
  // saves a round trip against distributed locking + 2PC.
  const auto abcast = measure(TechniqueKind::EagerAbcast);
  const auto locking = measure(TechniqueKind::EagerLocking);
  EXPECT_LT(abcast.mean_latency_us, locking.mean_latency_us);
  EXPECT_LT(abcast.msgs_per_op, locking.msgs_per_op);
}

TEST(Economics, ActiveReplicationBurnsCpuEverywhere) {
  // §3.2: "having all the processing done on all replicas consumes too much
  // resources" vs. passive applying cheap updates. Compare simulated CPU:
  // execution costs 100us, applying 20us; with 3 replicas active burns
  // 3x100us per op, passive 100 + 2x20.
  auto cpu_burned = [](TechniqueKind kind) {
    ClusterConfig cfg;
    cfg.kind = kind;
    cfg.replicas = 3;
    cfg.seed = 3;
    Cluster cluster(cfg);
    for (int i = 0; i < 5; ++i) cluster.run_op(0, op_put("k", "v" + std::to_string(i)));
    // Count executions/applies from the trace (EX spans cost exec, AC-with-
    // apply cost apply; we use commits as a proxy: every replica that
    // recorded a commit did work).
    double exec_spans = 0;
    for (const auto& ev : sim::phases(cluster.sim().tracer())) {
      if (ev.phase == sim::Phase::Execution) exec_spans += 1;
    }
    return exec_spans;
  };
  const auto active_execs = cpu_burned(TechniqueKind::Active);
  const auto passive_execs = cpu_burned(TechniqueKind::Passive);
  EXPECT_NEAR(active_execs, 15, 0.1) << "active: every replica executes every op";
  EXPECT_NEAR(passive_execs, 5, 0.1) << "passive: only the primary executes";
}

TEST(Economics, EagerCoordinationHappensBeforeReplyLazyAfter) {
  for (const auto& info : all_techniques()) {
    ClusterConfig cfg;
    cfg.kind = info.kind;
    cfg.replicas = 3;
    cfg.seed = 41;
    // Push lazy propagation beyond run_op's polling window so the
    // at-reply message sample genuinely precedes it.
    cfg.lazy_propagation_delay = 100 * sim::kMsec;
    Cluster cluster(cfg);
    const auto reply = cluster.run_op(0, op_put("k", "v"), 60 * sim::kSec);
    ASSERT_TRUE(reply.ok);
    const sim::Time reply_at = cluster.sim().now();
    const auto msgs_at_reply = cluster.sim().net().messages_excluding("gcs.Heartbeat");
    cluster.settle(5 * sim::kSec);
    const auto msgs_after = cluster.sim().net().messages_excluding("gcs.Heartbeat");
    if (info.eager) {
      // Eager: nothing protocol-related remains after the reply (all
      // coordination already happened); allow trailing acks.
      EXPECT_LE(msgs_after - msgs_at_reply, 8)
          << info.name << " kept coordinating after the reply";
    } else {
      // Lazy: the propagation traffic happens after the reply.
      EXPECT_GT(msgs_after - msgs_at_reply, 0)
          << info.name << " should propagate after replying";
    }
    (void)reply_at;
  }
}

}  // namespace
}  // namespace repli::core

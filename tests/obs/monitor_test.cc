// HealthMonitor unit tests: staleness sampling against the version
// frontier, divergence window bookkeeping, abort attribution, and the
// failover timeline state machine — each read back from the metrics and
// tracer instants the monitor records them as.
#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/monitor.hh"
#include "obs/trace.hh"

namespace repli::obs {
namespace {

struct Fixture {
  Registry registry;
  Tracer tracer;
  HealthMonitor mon{tracer, registry};

  const util::Histogram& staleness(std::string_view name, NodeId node) {
    return registry.histogram(name, node_label(node)).data();
  }
};

TEST(HealthMonitor, StalenessLagIsDistanceBehindFrontier) {
  Fixture f;
  f.mon.sample_versions(100, {{0, 10}, {1, 8}, {2, 10}});
  for (const NodeId node : {0, 1, 2}) {
    EXPECT_EQ(f.staleness("monitor.staleness_versions", node).count(), 1u);
  }
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 0).max(), 0.0);
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 1).max(), 2.0);
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 2).max(), 0.0);
  EXPECT_EQ(f.staleness("monitor.staleness_age_us", 0).max(), 0.0);
}

TEST(HealthMonitor, StalenessAgeGrowsWhileReplicaStaysBehind) {
  Fixture f;
  f.mon.sample_versions(100, {{0, 10}, {1, 8}});
  f.mon.sample_versions(300, {{0, 10}, {1, 8}});
  // Node 1 has been missing state since the frontier hit 10 at t=100.
  const auto& lag = f.staleness("monitor.staleness_versions", 1);
  const auto& age = f.staleness("monitor.staleness_age_us", 1);
  EXPECT_EQ(lag.count(), 2u);
  EXPECT_EQ(lag.max(), 2.0);
  EXPECT_EQ(age.max(), 200.0);
}

TEST(HealthMonitor, StalenessP95OverAllSamples) {
  Fixture f;
  for (int i = 0; i < 39; ++i) f.mon.sample_versions(i, {{0, 5}, {1, 5}});
  f.mon.sample_versions(100, {{0, 9}, {1, 5}});
  // One laggy sample out of 40 on node 1 leaves its p95 at zero.
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 1).p95(), 0.0);
  f.mon.sample_versions(101, {{0, 9}, {1, 5}});
  f.mon.sample_versions(102, {{0, 9}, {1, 5}});
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 1).max(), 4.0);
  EXPECT_EQ(f.staleness("monitor.staleness_versions", 0).max(), 0.0);
}

TEST(HealthMonitor, StalenessMirroredAsPerNodeHistograms) {
  Fixture f;
  f.mon.sample_versions(100, {{0, 10}, {1, 7}});
  const auto* lag = f.registry.find_histogram("monitor.staleness_versions", node_label(1));
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->data().max(), 3.0);
  ASSERT_NE(f.registry.find_histogram("monitor.staleness_age_us", node_label(0)), nullptr);
}

TEST(HealthMonitor, DivergenceWindowOpensAndCloses) {
  Fixture f;
  f.mon.digest_sample(10, {{0, 111}, {1, 111}});
  EXPECT_FALSE(f.mon.diverged_now());
  EXPECT_EQ(f.registry.counter_value("monitor.divergence_windows"), 0);

  f.mon.digest_sample(20, {{0, 111}, {1, 222}});
  EXPECT_TRUE(f.mon.diverged_now());
  f.mon.digest_sample(30, {{0, 333}, {1, 222}});  // still diverged: same window
  EXPECT_EQ(f.registry.counter_value("monitor.divergence_windows"), 1);
  EXPECT_TRUE(f.tracer.named("mon/divergence.end").empty());

  f.mon.digest_sample(50, {{0, 333}, {1, 333}});
  EXPECT_FALSE(f.mon.diverged_now());
  const auto ends = f.tracer.named("mon/divergence.end");
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends.front()->start, 50);

  EXPECT_EQ(f.registry.counter_value("monitor.divergence_windows"), 1);
  const auto* h = f.registry.find_histogram("monitor.divergence_window_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data().max(), 30.0);  // 50 - 20
  EXPECT_EQ(f.tracer.named("mon/divergence.start").size(), 1u);
}

TEST(HealthMonitor, AbortAttributionByCause) {
  Fixture f;
  f.mon.abort_event(0, 10, AbortCause::Certification, "t1", "writeset-conflict");
  f.mon.abort_event(1, 20, AbortCause::Certification, "t2");
  f.mon.abort_event(2, 30, AbortCause::Deadlock, "t3", "wait-die");
  EXPECT_EQ(f.tracer.named("mon/abort").size(), 3u);
  EXPECT_EQ(f.registry.counter_value("monitor.aborts"), 3);
  EXPECT_EQ(f.registry.counter("monitor.aborts", label("cause", "certification")).value(), 2);
  EXPECT_EQ(f.registry.counter("monitor.aborts", label("cause", "deadlock")).value(), 1);
  EXPECT_EQ(f.registry.counter("monitor.aborts", label("cause", "timeout")).value(), 0);
}

TEST(HealthMonitor, FailoverTimelineSuspectPromoteCommit) {
  Fixture f;
  auto& mon = f.mon;

  mon.suspected(0, 1, 1000);
  mon.suspected(0, 2, 1100);  // duplicate suspicion of the same node: folded
  ASSERT_EQ(mon.failovers().size(), 1u);
  EXPECT_FALSE(mon.failovers().front().complete());

  mon.committed(1, 1200);  // not promoted yet: must not close the timeline
  mon.promoted(1, 1500);
  mon.committed(2, 1600);  // some other node's commit: ignored
  EXPECT_FALSE(mon.failovers().front().complete());

  mon.committed(1, 2000);
  const auto& timeline = mon.failovers().front();
  EXPECT_TRUE(timeline.complete());
  EXPECT_EQ(timeline.failed, 0);
  EXPECT_EQ(timeline.new_primary, 1);
  EXPECT_EQ(timeline.duration(), 1000);  // suspicion at 1000 -> commit at 2000

  mon.committed(1, 3000);  // later commits leave the closed timeline alone
  EXPECT_EQ(mon.failovers().front().first_commit_at, 2000);

  const auto* h = f.registry.find_histogram("monitor.failover_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data().count(), 1u);
  EXPECT_EQ(h->data().max(), 1000.0);
  EXPECT_EQ(f.tracer.named("mon/failover.suspected").size(), 1u);
  EXPECT_EQ(f.tracer.named("mon/failover.promoted").size(), 1u);
  EXPECT_EQ(f.tracer.named("mon/failover.first_commit").size(), 1u);
}

TEST(HealthMonitor, PromotionWithoutSuspicionIsIgnored) {
  Fixture f;
  // Ordinary view installs promote a primary with no failure in sight; the
  // monitor must not invent a failover timeline for them.
  f.mon.promoted(0, 100);
  f.mon.committed(0, 200);
  EXPECT_TRUE(f.mon.failovers().empty());
}

}  // namespace
}  // namespace repli::obs

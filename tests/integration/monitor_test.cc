// The cluster-driven health monitor: staleness must show up under lazy
// propagation and stay ~zero under eager schemes, divergence windows must
// all close on conflict-free runs, and a primary crash must produce one
// complete failover timeline (suspicion -> promotion -> first commit).
// Each signal is read back from the run's metrics and tracer instants.
#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

/// The per-replica histograms `name` the monitor recorded.
std::vector<const util::Histogram*> per_replica(Cluster& cluster, std::string_view name) {
  std::vector<const util::Histogram*> out;
  for (const auto& [key, hist] : cluster.sim().metrics().histograms()) {
    if (key.name == name) out.push_back(&hist.data());
  }
  return out;
}

double max_over_replicas(Cluster& cluster, std::string_view name) {
  double max = 0;
  for (const auto* hist : per_replica(cluster, name)) max = std::max(max, hist->max());
  return max;
}

TEST(MonitorIntegration, StalenessPositiveUnderLazyPropagation) {
  auto cfg = testing::quiet_config(TechniqueKind::LazyPrimary);
  cfg.monitor_interval = 1 * sim::kMsec;
  cfg.lazy_propagation_delay = 20 * sim::kMsec;
  Cluster cluster(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.run_op(0, op_put("k" + std::to_string(i), "v")).ok);
  }
  cluster.settle(200 * sim::kMsec);

  ASSERT_FALSE(per_replica(cluster, "monitor.staleness_versions").empty());
  EXPECT_GT(max_over_replicas(cluster, "monitor.staleness_versions"), 0.0)
      << "backups lag the lazy primary by whole versions";
  EXPECT_GT(max_over_replicas(cluster, "monitor.staleness_age_us"), 0.0)
      << "staleness age must accumulate while the lag persists";
}

TEST(MonitorIntegration, StalenessNearZeroUnderEagerReplication) {
  auto cfg = testing::quiet_config(TechniqueKind::Active);
  cfg.monitor_interval = 1 * sim::kMsec;
  Cluster cluster(cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.run_op(0, op_put("k" + std::to_string(i), "v")).ok);
  }
  cluster.settle(200 * sim::kMsec);

  const auto lags = per_replica(cluster, "monitor.staleness_versions");
  ASSERT_EQ(lags.size(), static_cast<std::size_t>(cluster.replica_count()));
  // Transient single-version gaps can be sampled mid-broadcast, but eager
  // replication keeps every replica's distribution pinned at zero.
  for (const auto* lag : lags) EXPECT_EQ(lag->p95(), 0.0);
}

TEST(MonitorIntegration, DivergenceWindowsAllCloseOnConflictFreeRuns) {
  for (const auto kind : {TechniqueKind::Active, TechniqueKind::LazyPrimary}) {
    auto cfg = testing::quiet_config(kind);
    cfg.monitor_interval = 1 * sim::kMsec;
    Cluster cluster(cfg);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(cluster.run_op(0, op_put("k" + std::to_string(i), "v")).ok);
    }
    cluster.settle(2 * sim::kSec);
    ASSERT_TRUE(cluster.converged()) << technique_name(kind);
    // Windows may open transiently while updates are in flight, but a
    // conflict-free converged run must close every one of them.
    EXPECT_FALSE(cluster.monitor().diverged_now()) << technique_name(kind);
    const auto& tracer = cluster.sim().tracer();
    EXPECT_EQ(tracer.named("mon/divergence.end").size(),
              tracer.named("mon/divergence.start").size())
        << technique_name(kind);
  }
}

TEST(MonitorIntegration, PrimaryCrashYieldsCompleteFailoverTimeline) {
  Cluster cluster(testing::quiet_config(TechniqueKind::EagerPrimary));
  ASSERT_TRUE(cluster.run_op(0, op_put("k1", "committed-before")).ok);
  cluster.crash_replica(0);
  const auto reply = cluster.run_op(0, op_put("k2", "after-failover"), 60 * sim::kSec);
  ASSERT_TRUE(reply.ok) << "cluster never recovered from the primary crash";

  const auto& failovers = cluster.monitor().failovers();
  ASSERT_EQ(failovers.size(), 1u);
  const auto& timeline = failovers.front();
  EXPECT_EQ(timeline.failed, cluster.replica_node(0));
  EXPECT_TRUE(timeline.complete())
      << "suspected_at=" << timeline.suspected_at << " promoted_at=" << timeline.promoted_at
      << " first_commit_at=" << timeline.first_commit_at;
  EXPECT_LE(timeline.suspected_at, timeline.promoted_at);
  EXPECT_LE(timeline.promoted_at, timeline.first_commit_at);
  EXPECT_GT(timeline.duration(), 0);
}

TEST(MonitorIntegration, NoFailoverTimelinesOnHealthyRuns) {
  for (const auto kind : {TechniqueKind::EagerPrimary, TechniqueKind::Passive}) {
    Cluster cluster(testing::quiet_config(kind));
    ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
    cluster.settle(2 * sim::kSec);
    EXPECT_TRUE(cluster.monitor().failovers().empty()) << technique_name(kind);
  }
}

TEST(MonitorIntegration, ShortRunsStillGetAFinalSample) {
  // A run that finishes inside the first monitor_interval never ticks the
  // periodic sampler; the teardown flush must still capture one staleness
  // sample per replica, or short benches report empty health tables.
  auto cfg = testing::quiet_config(TechniqueKind::Active);
  cfg.monitor_interval = 20 * sim::kMsec;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  ASSERT_LT(cluster.sim().now(), cfg.monitor_interval)
      << "run outlived the interval; the test no longer tests the flush";
  EXPECT_TRUE(per_replica(cluster, "monitor.staleness_versions").empty());

  cluster.final_monitor_sample();
  const auto lags = per_replica(cluster, "monitor.staleness_versions");
  ASSERT_EQ(lags.size(), static_cast<std::size_t>(cluster.replica_count()));
  for (const auto* lag : lags) EXPECT_EQ(lag->count(), 1u);
}

TEST(MonitorIntegration, ClientGiveUpAttributedAsTimeoutAbort) {
  // Crash every replica: the client exhausts its retries and gives up; the
  // monitor must attribute that as a timeout abort.
  auto cfg = testing::quiet_config(TechniqueKind::Active);
  cfg.client_retry_timeout = 50 * sim::kMsec;
  cfg.client_max_attempts = 2;
  Cluster cluster(cfg);
  for (int i = 0; i < cluster.replica_count(); ++i) cluster.crash_replica(i);
  const auto reply = cluster.run_op(0, op_put("k", "v"), 30 * sim::kSec);
  EXPECT_FALSE(reply.ok);
  EXPECT_GE(cluster.sim().metrics().counter("monitor.aborts", obs::label("cause", "timeout")).value(),
            1);
}

}  // namespace
}  // namespace repli::core

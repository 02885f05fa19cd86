// Trial determinism: a trial is a pure function of its TrialConfig. Same
// seeds + plan must reproduce the identical run — schedule digest, event
// count, op tallies — because that is the entire replay story.
#include "explore/trial.hh"

#include <gtest/gtest.h>

#include "explore/explore.hh"
#include "util/assert.hh"

namespace repli::explore {
namespace {

TrialConfig small_config() {
  TrialConfig tc;
  tc.kind = core::TechniqueKind::Active;
  tc.workload_seed = 11;
  tc.schedule_seed = 22;
  tc.clients = 2;
  tc.ops_per_client = 10;
  tc.settle = 2 * sim::kSec;
  return tc;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failed_check, b.failed_check);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_failed, b.ops_failed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.ties_randomized, b.ties_randomized);
  EXPECT_EQ(a.tainted_keys, b.tainted_keys);
}

TEST(Trial, SameConfigReproducesTheIdenticalRun) {
  auto tc = small_config();
  std::string error;
  tc.plan = parse_plan("tie; jitter=300; crash@t9000:r2", &error).value();
  const auto a = run_trial(tc);
  const auto b = run_trial(tc);
  EXPECT_TRUE(a.ok) << a.violation;
  EXPECT_EQ(a.faults_injected, 1u);
  EXPECT_GT(a.ties_randomized, 0u);
  expect_identical(a, b);
}

TEST(Trial, ScheduleSeedChangesTheSchedule) {
  auto tc = small_config();
  tc.plan.tie_break = true;
  const auto a = run_trial(tc);
  tc.schedule_seed = 23;
  const auto b = run_trial(tc);
  EXPECT_TRUE(a.ok && b.ok);
  EXPECT_NE(a.schedule_digest, b.schedule_digest);
}

TEST(Trial, UnperturbedPlanLeavesTheScheduleAlone) {
  auto tc = small_config();
  const auto a = run_trial(tc);
  EXPECT_TRUE(a.ok) << a.violation;
  EXPECT_EQ(a.ties_randomized, 0u);
  EXPECT_EQ(a.ops_ok, 20u);
}

TEST(Trial, PhaseTriggeredFaultFires) {
  auto tc = small_config();
  tc.plan = parse_plan("crash@sc3:r1").value();
  const auto a = run_trial(tc);
  EXPECT_TRUE(a.ok) << a.violation;
  EXPECT_EQ(a.faults_injected, 1u);
}

TEST(Trial, PartitionHealsAndConverges) {
  auto tc = small_config();
  tc.settle = 5 * sim::kSec;
  tc.plan = parse_plan("part@t5000:r2+3000").value();
  const auto a = run_trial(tc);
  EXPECT_TRUE(a.ok) << a.failed_check << ": " << a.violation;
  EXPECT_EQ(a.faults_injected, 1u);
}

TEST(Trial, FailureTransparentTechniquesLoseNoOpUnderLossAndACrash) {
  // The live replicas' ARQ links retransmit through 5% iid loss while
  // their links to the crashed replica back off.
  for (const auto kind : {core::TechniqueKind::Active, core::TechniqueKind::SemiActive,
                          core::TechniqueKind::SemiPassive}) {
    auto tc = small_config();
    tc.kind = kind;
    tc.plan = parse_plan("loss=50; crash@t9000:r1").value();
    const auto a = run_trial(tc);
    EXPECT_TRUE(a.ok) << core::technique_name(kind) << ": " << a.failed_check << ": "
                      << a.violation;
    EXPECT_EQ(a.faults_injected, 1u) << core::technique_name(kind);
    EXPECT_EQ(a.ops_failed, 0u) << core::technique_name(kind);
    EXPECT_EQ(a.ops_ok, 20u) << core::technique_name(kind);
  }
}

TEST(Trial, LossDropsMessages) {
  auto tc = small_config();
  tc.plan = parse_plan("loss=100").value();
  std::int64_t dropped = 0;
  tc.extra_check = [&dropped](const TrialConfig&, core::Cluster& cluster) {
    dropped = cluster.sim().metrics().counter("net.dropped").value();
    return std::string();
  };
  const auto a = run_trial(tc);
  EXPECT_TRUE(a.ok) << a.failed_check << ": " << a.violation;
  EXPECT_GT(dropped, 0);
}

TEST(Trial, FaultOnNonReplicaIsAnInvariantViolation) {
  auto tc = small_config();
  tc.plan = parse_plan("crash@t5000:r7").value();
  EXPECT_THROW(run_trial(tc), util::InvariantViolation);
}

TEST(DeriveSeed, LanesAreDecorrelated) {
  const auto a = derive_seed(1, 0, 0);
  const auto b = derive_seed(1, 0, 1);
  const auto c = derive_seed(1, 1, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(1, 0, 0));
}

TEST(GeneratePlan, IsPureAndStaysInsideTheEnvelope) {
  ExploreConfig config;
  config.kind = core::TechniqueKind::Certification;
  config.seed = 99;
  for (int t = 0; t < 50; ++t) {
    const auto plan = generate_plan(config, t);
    EXPECT_EQ(format_plan(plan), format_plan(generate_plan(config, t)));
    int crashes = 0;
    bool has_partition = false;
    for (const auto& f : plan.faults) {
      EXPECT_GE(f.replica, 0);
      EXPECT_LT(f.replica, config.replicas);
      if (f.kind == Fault::Kind::Crash) {
        ++crashes;
      } else {
        has_partition = true;
        // Partitions must heal before the failure detector can falsely
        // suspect anyone (see the envelope comment in generate_plan).
        EXPECT_LT(f.heal_after, 10 * sim::kMsec);
      }
    }
    EXPECT_LE(crashes, (config.replicas - 1) / 2);
    if (has_partition) {
      EXPECT_LE(plan.jitter, 800);
    }
  }
}

}  // namespace
}  // namespace repli::explore

// The delta-debugging shrinker, exercised against a hand-planted
// violation: a deliberately weakened "checker" (the extra_check hook)
// that flags any plan containing a crash fault. The shrinker must strip
// everything else — extra faults, loss, jitter, tie-breaking — and hand back
// the minimal 1-fault plan, still failing.
#include <gtest/gtest.h>

#include "explore/explore.hh"
#include "util/assert.hh"

namespace repli::explore {
namespace {

TrialConfig planted_config() {
  TrialConfig tc;
  tc.kind = core::TechniqueKind::Active;
  tc.workload_seed = 31;
  tc.schedule_seed = 32;
  tc.clients = 2;
  tc.ops_per_client = 8;
  tc.settle = 2 * sim::kSec;
  // The planted bug: "any run that crashed a replica is wrong". Everything
  // except one crash fault is noise the shrinker must discard.
  tc.extra_check = [](const TrialConfig& config, core::Cluster&) -> std::string {
    for (const auto& fault : config.plan.faults) {
      if (fault.kind == Fault::Kind::Crash) return "planted: a replica crashed";
    }
    return "";
  };
  return tc;
}

TEST(Shrink, ReducesToTheMinimalOneFaultPlan) {
  auto tc = planted_config();
  tc.plan = parse_plan(
                "tie; jitter=500; part@t4000:r0+2000; crash@t9000:r1; part@t15000:r2+2500")
                .value();
  const auto shrunk = shrink(tc);

  EXPECT_FALSE(shrunk.result.ok);
  EXPECT_EQ(shrunk.result.failed_check, "extra");
  EXPECT_FALSE(shrunk.minimal.tie_break);
  EXPECT_EQ(shrunk.minimal.jitter, 0);
  ASSERT_EQ(shrunk.minimal.faults.size(), 1u);
  EXPECT_EQ(shrunk.minimal.faults[0].kind, Fault::Kind::Crash);
  EXPECT_EQ(shrunk.minimal.faults[0].replica, 1);
  EXPECT_EQ(format_plan(shrunk.minimal), "crash@t9000:r1");
  EXPECT_GE(shrunk.steps, 4);  // two partitions, jitter, tie all dropped
  EXPECT_GT(shrunk.runs, shrunk.steps);

  // The minimal reproducer replays deterministically.
  auto replay = tc;
  replay.plan = shrunk.minimal;
  const auto again = run_trial(replay);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.schedule_digest, shrunk.result.schedule_digest);
}

TEST(Shrink, DropsTheLossRate) {
  auto tc = planted_config();
  tc.plan = parse_plan("loss=50; crash@t9000:r1").value();
  const auto shrunk = shrink(tc);
  EXPECT_FALSE(shrunk.result.ok);
  EXPECT_EQ(format_plan(shrunk.minimal), "crash@t9000:r1");
  EXPECT_EQ(shrunk.steps, 1);
}

TEST(Shrink, PassingTrialIsAnInvariantViolation) {
  TrialConfig tc;
  tc.kind = core::TechniqueKind::Active;
  tc.workload_seed = 31;
  tc.clients = 2;
  tc.ops_per_client = 5;
  tc.settle = 2 * sim::kSec;
  EXPECT_THROW(shrink(tc), util::InvariantViolation);
}

TEST(Shrink, AlreadyMinimalPlanIsUntouched) {
  auto tc = planted_config();
  tc.plan = parse_plan("crash@t9000:r1").value();
  const auto shrunk = shrink(tc);
  EXPECT_EQ(shrunk.steps, 0);
  EXPECT_EQ(format_plan(shrunk.minimal), "crash@t9000:r1");
}

}  // namespace
}  // namespace repli::explore

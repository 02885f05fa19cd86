// Shrunk-down reproducers from the 25-trial sweep (master seed 1) where one
// replica crash used to stall an eager technique: the in-flight transaction
// waited forever for the dead replica's ack, lock grant or execution, and
// every later request timed out behind it. Each trial must now finish its
// whole workload, stay safe, and do so without idling through client
// timeouts; the event cap turns a stall back into a test failure (a stalled
// trial runs 200k–300k events).
#include <gtest/gtest.h>

#include "explore/plan.hh"
#include "explore/trial.hh"

namespace repli::explore {
namespace {

struct Reproducer {
  const char* name;
  core::TechniqueKind kind;
  std::uint64_t workload_seed;
  std::uint64_t schedule_seed;
  const char* plan;
  std::uint64_t max_events;
};

class FailoverRegression : public ::testing::TestWithParam<Reproducer> {};

TEST_P(FailoverRegression, FinishesEveryOpSafelyWithoutStalling) {
  const auto& r = GetParam();
  TrialConfig tc;
  tc.kind = r.kind;
  tc.workload_seed = r.workload_seed;
  tc.schedule_seed = r.schedule_seed;
  std::string error;
  const auto plan = parse_plan(r.plan, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  tc.plan = *plan;
  const auto result = run_trial(tc);
  EXPECT_TRUE(result.ok) << result.failed_check << ": " << result.violation;
  EXPECT_EQ(result.ops_ok, 75u);
  EXPECT_EQ(result.ops_failed, 0u);
  EXPECT_LE(result.events, r.max_events) << "the trial idled: a failover stall is back";
}

// Eager primary: trial 3 stalled on the crashed backup's ship ack. Trials 4
// and 15 also broke 1SR once that ack stopped being awaited, because a
// backup suspecting the *other* backup dropped the live primary's staged
// change and then committed the transaction with no writes.
// Eager locking: trials 4 and 8 waited for the crashed replica's lock reply.
INSTANTIATE_TEST_SUITE_P(
    Sweep25, FailoverRegression,
    ::testing::Values(
        Reproducer{"eager_primary_trial3", core::TechniqueKind::EagerPrimary,
                   0x6299d894c7c33835, 0xcf36f4119163aff4, "crash@end7:r1; part@ac2:r0+2268",
                   20000},
        Reproducer{"eager_primary_trial4", core::TechniqueKind::EagerPrimary,
                   0x7b231e6a2a956af0, 0xdc9ccf083a8d581a,
                   "tie; crash@re10:r1; part@ac3:r2+812", 20000},
        Reproducer{"eager_primary_trial15", core::TechniqueKind::EagerPrimary,
                   0xe9585223fe890065, 0x1d9fc7e446183666,
                   "tie; jitter=800; part@ac10:r0+1341; crash@t71908:r2", 20000},
        Reproducer{"eager_locking_trial4", core::TechniqueKind::EagerLocking,
                   0x7b231e6a2a956af0, 0xdc9ccf083a8d581a,
                   "tie; crash@re10:r1; part@ac3:r2+812", 50000},
        Reproducer{"eager_locking_trial8", core::TechniqueKind::EagerLocking,
                   0x9093917a0f583a92, 0xe0c962397cbbd33b,
                   "tie; crash@re6:r2; part@t101498:r0+2355", 50000}),
    [](const ::testing::TestParamInfo<Reproducer>& info) { return info.param.name; });

}  // namespace
}  // namespace repli::explore

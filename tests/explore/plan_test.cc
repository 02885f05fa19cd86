// Fault-plan grammar: format_plan and parse_plan must round-trip exactly —
// a plan printed into a CI log is the replay input.
#include "explore/plan.hh"

#include <gtest/gtest.h>

namespace repli::explore {
namespace {

Plan roundtrip(const Plan& plan) {
  std::string error;
  const auto parsed = parse_plan(format_plan(plan), &error);
  EXPECT_TRUE(parsed.has_value()) << error << " for '" << format_plan(plan) << "'";
  return parsed.value_or(Plan{});
}

TEST(PlanGrammar, EmptyPlanIsNone) {
  Plan plan;
  EXPECT_EQ(format_plan(plan), "none");
  const auto parsed = parse_plan("none");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(PlanGrammar, FullPlanRoundTrips) {
  Plan plan;
  plan.tie_break = true;
  plan.jitter = 400;
  Fault crash;
  crash.kind = Fault::Kind::Crash;
  crash.trigger.kind = Trigger::Kind::Phase;
  crash.trigger.phase = "sc";
  crash.trigger.occurrence = 2;
  crash.replica = 1;
  plan.faults.push_back(crash);
  Fault part;
  part.kind = Fault::Kind::Partition;
  part.trigger.kind = Trigger::Kind::Time;
  part.trigger.at = 20000;
  part.replica = 0;
  part.heal_after = 50000;
  plan.faults.push_back(part);

  EXPECT_EQ(format_plan(plan), "tie; jitter=400; crash@sc2:r1; part@t20000:r0+50000");
  const auto back = roundtrip(plan);
  EXPECT_EQ(format_plan(back), format_plan(plan));
  EXPECT_TRUE(back.tie_break);
  EXPECT_EQ(back.jitter, 400);
  ASSERT_EQ(back.faults.size(), 2u);
  EXPECT_EQ(back.faults[0].kind, Fault::Kind::Crash);
  EXPECT_EQ(back.faults[0].trigger.phase, "sc");
  EXPECT_EQ(back.faults[0].trigger.occurrence, 2u);
  EXPECT_EQ(back.faults[1].kind, Fault::Kind::Partition);
  EXPECT_EQ(back.faults[1].trigger.at, 20000);
  EXPECT_EQ(back.faults[1].heal_after, 50000);
}

TEST(PlanGrammar, LossRoundTrips) {
  Plan plan;
  plan.jitter = 400;
  plan.loss = 50;
  Fault crash;
  crash.trigger.at = 20000;
  crash.replica = 1;
  plan.faults.push_back(crash);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(format_plan(plan), "jitter=400; loss=50; crash@t20000:r1");
  const auto back = roundtrip(plan);
  EXPECT_EQ(back.loss, 50);
  EXPECT_EQ(format_plan(back), format_plan(plan));
  for (const char* text : {"loss=1", "loss=999", "tie; loss=10"}) {
    const auto parsed = parse_plan(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(format_plan(*parsed), text);
  }
}

TEST(PlanGrammar, EveryPhaseAbbrevParses) {
  for (const char* ph : {"re", "sc", "ex", "ac", "end"}) {
    const std::string text = std::string("crash@") + ph + "3:r0";
    const auto parsed = parse_plan(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->faults.at(0).trigger.phase, ph);
    EXPECT_EQ(format_plan(*parsed), text);
  }
}

TEST(PlanGrammar, ToleratesSpacePaddingAroundSeparators) {
  const auto parsed = parse_plan("tie ;  jitter=10;crash@t5:r2");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_plan(*parsed), "tie; jitter=10; crash@t5:r2");
}

TEST(PlanGrammar, MalformedInputsAreRejectedWithADiagnostic) {
  for (const char* bad : {
           "ties",                   // unknown entry
           "jitter=",                // missing number
           "jitter=-5",              // negative
           "crash@t5",               // missing replica
           "crash@t5:x2",            // bad replica marker
           "crash@zz2:r0",           // unknown phase
           "crash@sc0:r0",           // occurrence is 1-based
           "part@t5:r1",             // partition without duration
           "part@t5:r1+",            // empty duration
           "crash@t5:r1 extra",      // trailing garbage
           "none; tie",              // "none" must stand alone
           "loss=",                  // missing rate
           "loss=-5",                // negative
           "loss=0",                 // zero is the absent entry, not a rate
           "loss=1000",              // per mille: 1000 would drop everything
           "loss=5%",                // trailing garbage
           "loss=0.05",              // a fraction, not per mille
       }) {
    std::string error;
    EXPECT_FALSE(parse_plan(bad, &error).has_value()) << "accepted: '" << bad << "'";
    EXPECT_FALSE(error.empty()) << bad;
  }
}

}  // namespace
}  // namespace repli::explore

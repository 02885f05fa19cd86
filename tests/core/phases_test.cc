// Figure 16 as a test: the phase pattern each technique *actually*
// exhibits, extracted from instrumented runs, must equal the pattern the
// paper tabulates.
#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

class PhasePatterns : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(PhasePatterns, ObservedPatternMatchesPaper) {
  const auto& info = technique_info(GetParam());
  Cluster cluster(testing::quiet_config(GetParam()));
  const auto reply = cluster.run_op(0, op_put("item-x", "update"));
  ASSERT_TRUE(reply.ok) << reply.result;
  // Let post-reply coordination (lazy AC) land in the trace.
  cluster.settle(2 * sim::kSec);

  const auto requests = sim::requests(cluster.sim().tracer());
  ASSERT_FALSE(requests.empty());
  const auto pattern = sim::pattern(cluster.sim().tracer(), requests.front());
  EXPECT_EQ(sim::pattern_to_string(pattern), info.paper_pattern)
      << info.name << " diverges from the paper's " << info.figure;
}

TEST_P(PhasePatterns, EagerMeansAgreementBeforeResponse) {
  const auto& info = technique_info(GetParam());
  Cluster cluster(testing::quiet_config(GetParam()));
  cluster.run_op(0, op_put("k", "v"));
  cluster.settle(2 * sim::kSec);

  const auto requests = sim::requests(cluster.sim().tracer());
  const auto events = sim::phases_for(cluster.sim().tracer(), requests.front());
  sim::Time response_at = -1;
  sim::Time first_ac = -1;
  for (const auto& ev : events) {
    if (ev.phase == sim::Phase::Response) response_at = ev.start;
    if (ev.phase == sim::Phase::AgreementCoord && first_ac < 0) first_ac = ev.start;
  }
  ASSERT_GE(response_at, 0);
  if (first_ac < 0) return;  // techniques without an AC phase (active, abcast)
  if (info.eager) {
    EXPECT_LE(first_ac, response_at) << info.name << ": AC must precede END when eager";
  } else {
    EXPECT_GT(first_ac, response_at) << info.name << ": lazy must reply before AC";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, PhasePatterns,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

TEST(PhasePatterns, StrongTechniquesCoordinateBeforeResponding) {
  // Figure 15's claim: every strong-consistency combination has an SC
  // and/or AC step before END.
  for (const auto kind : testing::strong_kinds()) {
    Cluster cluster(testing::quiet_config(kind));
    const auto reply = cluster.run_op(0, op_put("k", "v"));
    ASSERT_TRUE(reply.ok) << technique_name(kind);
    const auto requests = sim::requests(cluster.sim().tracer());
    const auto pattern = sim::pattern(cluster.sim().tracer(), requests.front());
    bool coord_before_end = false;
    for (const auto p : pattern) {
      if (p == sim::Phase::Response) break;
      if (p == sim::Phase::ServerCoord || p == sim::Phase::AgreementCoord) {
        coord_before_end = true;
      }
    }
    EXPECT_TRUE(coord_before_end)
        << technique_name(kind) << " claims strong consistency without SC/AC before END";
  }
}

}  // namespace
}  // namespace repli::core

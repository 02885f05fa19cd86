#include "sim/trace.hh"

#include <gtest/gtest.h>

#include <sstream>

#include "util/assert.hh"

namespace repli::sim {
namespace {

/// A tracer with a Trace recording phases onto it.
struct Traced {
  obs::Tracer tracer;
  Trace trace{tracer};
};

TEST(Trace, PhaseNamesAndAbbrevs) {
  EXPECT_EQ(phase_abbrev(Phase::Request), "RE");
  EXPECT_EQ(phase_abbrev(Phase::ServerCoord), "SC");
  EXPECT_EQ(phase_abbrev(Phase::Execution), "EX");
  EXPECT_EQ(phase_abbrev(Phase::AgreementCoord), "AC");
  EXPECT_EQ(phase_abbrev(Phase::Response), "END");
  EXPECT_EQ(phase_name(Phase::AgreementCoord), "Agreement Coordination");
}

TEST(Trace, PatternOrdersByFirstStart) {
  Traced t;
  t.trace.phase("r1", 0, Phase::Request, 0, 10);
  t.trace.phase("r1", 1, Phase::ServerCoord, 10, 30);
  t.trace.phase("r1", 2, Phase::ServerCoord, 12, 30);  // same phase on another node
  t.trace.phase("r1", 1, Phase::Execution, 30, 40);
  t.trace.phase("r1", 2, Phase::Execution, 31, 41);
  t.trace.phase("r1", 0, Phase::Response, 50, 50);
  EXPECT_EQ(pattern_to_string(pattern(t.tracer, "r1")), "RE SC EX END");
}

TEST(Trace, PatternOrdersPhasesByFirstStartOverRawSpans) {
  // Phase spans as a trace file carries them: recorded out of start order,
  // on several nodes, mixed with a core/ sub-phase span that is no phase.
  obs::Tracer tracer;
  tracer.record(3, "core/RE", 0, 10, "r1");
  tracer.record(0, "core/SC", 10, 40, "r1");
  tracer.record(1, "core/EX", 50, 70, "r1");
  tracer.record(0, "core/EX", 45, 65, "r1");  // earliest EX wins
  tracer.record(0, "core/ac.ship", 60, 65, "r1");
  tracer.record(3, "core/END", 80, 81, "r1");
  EXPECT_EQ(pattern_to_string(pattern(tracer, "r1")), "RE SC EX END");
  EXPECT_EQ(requests(tracer), std::vector<std::string>{"r1"});
  std::vector<NodeId> nodes;
  for (const auto& ev : phases_for(tracer, "r1")) nodes.push_back(ev.node);
  EXPECT_EQ(nodes, (std::vector<NodeId>{3, 0, 0, 1, 3}));
}

TEST(Trace, LazyPatternPutsResponseBeforeAgreement) {
  Traced t;
  t.trace.phase("r1", 0, Phase::Request, 0, 5);
  t.trace.phase("r1", 1, Phase::Execution, 5, 20);
  t.trace.phase("r1", 0, Phase::Response, 25, 25);
  t.trace.phase("r1", 1, Phase::AgreementCoord, 40, 60);  // propagation after reply
  EXPECT_EQ(pattern_to_string(pattern(t.tracer, "r1")), "RE EX END AC");
}

TEST(Trace, PatternsAreIndependentPerRequest) {
  Traced t;
  t.trace.phase("a", 0, Phase::Request, 0, 1);
  t.trace.phase("a", 0, Phase::Response, 2, 2);
  t.trace.phase("b", 0, Phase::Request, 5, 6);
  t.trace.phase("b", 0, Phase::Execution, 6, 8);
  t.trace.phase("b", 0, Phase::Response, 9, 9);
  EXPECT_EQ(pattern_to_string(pattern(t.tracer, "a")), "RE END");
  EXPECT_EQ(pattern_to_string(pattern(t.tracer, "b")), "RE EX END");
}

TEST(Trace, UnknownRequestHasEmptyPattern) {
  const obs::Tracer tracer;
  EXPECT_TRUE(pattern(tracer, "ghost").empty());
  EXPECT_TRUE(phases(tracer).empty());
  EXPECT_TRUE(requests(tracer).empty());
}

TEST(Trace, RequestsInFirstAppearanceOrder) {
  Traced t;
  t.trace.phase("x", 0, Phase::Request, 0, 0);
  t.trace.phase("y", 0, Phase::Request, 1, 1);
  t.trace.phase("x", 0, Phase::Response, 2, 2);
  EXPECT_EQ(requests(t.tracer), (std::vector<std::string>{"x", "y"}));
}

TEST(Trace, PhasesForSortsByStartThenNode) {
  Traced t;
  t.trace.phase("r", 2, Phase::Execution, 10, 20);
  t.trace.phase("r", 1, Phase::Execution, 10, 22);
  t.trace.phase("r", 0, Phase::Request, 0, 5);
  const auto events = phases_for(t.tracer, "r");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, Phase::Request);
  EXPECT_EQ(events[1].node, 1);
  EXPECT_EQ(events[2].node, 2);
}

TEST(Trace, RejectsNegativeSpans) {
  Traced t;
  EXPECT_THROW(t.trace.phase("r", 0, Phase::Request, 10, 5), util::InvariantViolation);
}

TEST(Trace, TimelineScalesPhasesOntoSixtyColumnsPerNode) {
  Traced t;
  t.trace.phase("r", 0, Phase::Request, 0, 0);
  t.trace.phase("r", 1, Phase::Execution, 30, 60);
  t.trace.phase("r", 0, Phase::Response, 120, 120);
  t.trace.phase("other", 2, Phase::Execution, 0, 120);  // another request: no row
  std::ostringstream os;
  write_timeline(t.tracer, "r", [](NodeId n) { return "n" + std::to_string(n); }, os);
  EXPECT_EQ(os.str(),
            "  timeline (120us total, request r)\n"
            "    n0                 |R" + std::string(59, '.') + "E|\n"
            "    n1                 |" + std::string(15, '.') + "EXEXEXEXEXEXEXEX" +
                std::string(30, '.') + "|\n"
            "    legend: RE request  SC server-coordination  EX execution  "
            "AC agreement-coordination  END response\n");
}

TEST(Trace, TimelineOfAnUnknownRequestSaysSo) {
  const obs::Tracer tracer;
  std::ostringstream os;
  write_timeline(tracer, "ghost", [](NodeId) { return std::string("x"); }, os);
  EXPECT_EQ(os.str(), "  (no phase events recorded)\n");
}

}  // namespace
}  // namespace repli::sim

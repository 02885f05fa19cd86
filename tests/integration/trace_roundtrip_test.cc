// Chrome-trace round trip across all ten techniques: a trace read back with
// obs::read_chrome_trace must be the trace that was exported. Exporting the
// read-back again gives the same bytes, obs::write_folded gives the same
// stacks (so span parentage survives the file), and the phase derivations
// the report uses give the same requests and patterns as the live run.
#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "obs/profile.hh"
#include "sim/trace.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

class TraceRoundTrip : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(TraceRoundTrip, ReadBackMatchesTheLiveTracer) {
  Cluster cluster(testing::quiet_config(GetParam(), 3, 2, 11));
  for (int i = 0; i < 6; ++i) {
    const auto key = "key-" + std::to_string(i % 3);
    const auto op = i % 3 == 2 ? op_get(key) : op_put(key, "v" + std::to_string(i));
    ASSERT_TRUE(cluster.run_op(i % 2, op).ok) << "op " << i;
  }
  cluster.settle(2 * sim::kSec);
  const obs::Tracer& live = cluster.sim().tracer();

  std::ostringstream exported;
  obs::write_chrome_trace(live, exported);
  const auto read = obs::read_chrome_trace(exported.str());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->tracer.size(), live.size());
  EXPECT_EQ(read->tracer.flows().size(), live.flows().size());

  std::ostringstream reexported;
  obs::write_chrome_trace(read->tracer, reexported);
  EXPECT_EQ(reexported.str(), exported.str());

  std::ostringstream live_folded;
  std::ostringstream read_folded;
  obs::write_folded(live, live_folded);
  obs::write_folded(read->tracer, read_folded);
  EXPECT_FALSE(live_folded.str().empty());
  EXPECT_EQ(read_folded.str(), live_folded.str());

  const auto requests = sim::requests(live);
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(sim::requests(read->tracer), requests);
  for (const auto& request : requests) {
    EXPECT_EQ(sim::pattern(read->tracer, request), sim::pattern(live, request)) << request;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, TraceRoundTrip,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

}  // namespace
}  // namespace repli::core

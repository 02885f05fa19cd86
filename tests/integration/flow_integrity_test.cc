// Flow-arrow integrity across all ten techniques: in a loss-free run every
// cross-node message edge recorded by the tracer must be delivered (its
// receive side filled in) unless its delivery was still scheduled when the
// simulation stopped — an undelivered flow inside the run window is an
// orphan arrow, i.e. a send span with no matching receive. The exported
// Chrome trace must round-trip every edge as a matched s/f pair (a receive
// with no send would be dropped by the parser and shrink the count).
#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "tests/core/core_test_util.hh"
#include "tools/report/report.hh"

namespace repli::core {
namespace {

class FlowIntegrity : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(FlowIntegrity, EverySendHasAMatchingReceive) {
  Cluster cluster(testing::quiet_config(GetParam(), 3, 2, 7));
  for (int i = 0; i < 8; ++i) {
    const auto key = "key-" + std::to_string(i % 4);
    const auto reply = (i % 2 == 0)
                           ? cluster.run_op(i % 2, op_put(key, "v" + std::to_string(i)))
                           : cluster.run_op(i % 2, op_get(key));
    ASSERT_TRUE(reply.ok) << "op " << i;
  }
  cluster.settle(2 * sim::kSec);
  const sim::Time end_time = cluster.sim().now();

  const auto& flows = cluster.sim().tracer().flows();
  ASSERT_FALSE(flows.empty());
  std::size_t delivered = 0;
  for (const auto& flow : flows) {
    EXPECT_NE(flow.from, flow.to) << "self-sends must not record flows";
    EXPECT_LE(flow.sent, flow.recv) << flow.type;
    if (flow.lamport_recv != 0) {
      ++delivered;
      EXPECT_GT(flow.lamport_recv, flow.lamport_send)
          << flow.type << " " << flow.from << "->" << flow.to;
    } else {
      // Orphan arrow unless the delivery event simply lies beyond the end
      // of the run (e.g. a heartbeat still in flight at teardown).
      EXPECT_GT(flow.recv, end_time)
          << "orphan arrow: " << flow.type << " " << flow.from << "->" << flow.to
          << " sent at " << flow.sent << " never received";
    }
  }
  EXPECT_GT(delivered, 0u);

  // Exporter round-trip: the parser pairs s/f events by id and drops
  // unmatched halves, so a full-count round-trip proves every arrow is a
  // matched pair in the artifact too.
  std::ostringstream os;
  obs::write_chrome_trace(cluster.sim().tracer(), os);
  const auto parsed = tools::parse_chrome_trace(os.str(), "flow-integrity");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tracer.flows().size(), flows.size());
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, FlowIntegrity,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

}  // namespace
}  // namespace repli::core

// Cross-node causal tracing end to end: one client request must come out of
// the Chrome trace exporter as ONE connected trace — its core/ phase spans
// tagged with the same trace id on >= 3 nodes, stitched together by flow
// events — and the report tool must rebuild the paper's phase orders from
// those measured spans (Fig. 2 for active, Fig. 7 for eager primary copy).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "sim/trace.hh"
#include "tests/core/core_test_util.hh"
#include "tools/report/report.hh"

namespace repli::core {
namespace {

tools::TraceData exported_trace(Cluster& cluster, const std::string& tag) {
  std::ostringstream os;
  obs::write_chrome_trace(cluster.sim().tracer(), os);
  auto parsed = tools::parse_chrome_trace(os.str(), tag);
  EXPECT_TRUE(parsed.has_value()) << "exporter emitted unparseable JSON";
  return parsed.has_value() ? std::move(*parsed) : tools::TraceData{};
}

TEST(CausalTrace, OneRequestIsOneConnectedTraceAcrossNodes) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  ASSERT_TRUE(cluster.run_op(0, op_put("item-x", "update")).ok);
  cluster.settle(2 * sim::kSec);

  const auto trace = exported_trace(cluster, "active-1");
  const auto requests = sim::requests(trace.tracer);
  ASSERT_FALSE(requests.empty());
  const auto& request = requests.front();

  // Every phase span of the request carries one non-zero trace id.
  std::uint64_t trace_id = 0;
  std::set<obs::NodeId> phase_nodes;
  for (const auto& span : trace.tracer.spans()) {
    if (span.request != request || span.name.rfind("core/", 0) != 0) continue;
    ASSERT_NE(span.trace, 0u) << span.name << " on node " << span.node
                              << " lost the causal context";
    if (trace_id == 0) trace_id = span.trace;
    EXPECT_EQ(span.trace, trace_id)
        << span.name << " on node " << span.node << " belongs to a different trace";
    phase_nodes.insert(span.node);
  }
  ASSERT_NE(trace_id, 0u);
  EXPECT_GE(phase_nodes.size(), 4u)  // 3 replicas + the client
      << "active replication must execute the request on every replica";

  // Flow events carry the same trace id across >= 3 nodes, with Lamport
  // send-before-receive order preserved by the exporter round-trip.
  std::set<obs::NodeId> flow_nodes;
  std::size_t tagged_flows = 0;
  for (const auto& flow : trace.tracer.flows()) {
    if (flow.trace != trace_id) continue;
    ++tagged_flows;
    flow_nodes.insert(flow.from);
    flow_nodes.insert(flow.to);
    EXPECT_LE(flow.sent, flow.recv);
  }
  EXPECT_GE(tagged_flows, 3u) << "request's messages lost their flow events";
  EXPECT_GE(flow_nodes.size(), 3u)
      << "one request's flows must link at least three nodes";
}

TEST(CausalTrace, ConcurrentRequestsStayInDistinctTraces) {
  auto cfg = testing::quiet_config(TechniqueKind::Active, 3, 2);
  Cluster cluster(cfg);
  int done = 0;
  cluster.submit_op(0, op_put("a", "1"), [&](const ClientReply&) { ++done; });
  cluster.submit_op(1, op_put("b", "2"), [&](const ClientReply&) { ++done; });
  cluster.sim().run_until(cluster.sim().now() + 10 * sim::kSec);
  ASSERT_EQ(done, 2);

  const auto trace = exported_trace(cluster, "active-1");
  std::set<std::uint64_t> ids;
  for (const auto& request : sim::requests(trace.tracer)) {
    std::uint64_t trace_id = 0;
    for (const auto& span : trace.tracer.spans()) {
      if (span.request == request && span.trace != 0) trace_id = span.trace;
    }
    EXPECT_NE(trace_id, 0u) << request;
    ids.insert(trace_id);
  }
  EXPECT_EQ(ids.size(), 2u) << "two requests collapsed into one causal trace";
}

TEST(CausalTrace, ReportReproducesFig2ActivePattern) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  ASSERT_TRUE(cluster.run_op(0, op_put("item-x", "update")).ok);
  cluster.settle(2 * sim::kSec);

  auto trace = exported_trace(cluster, "active-1");
  const auto requests = sim::requests(trace.tracer);
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(sim::pattern_to_string(sim::pattern(trace.tracer, requests.front())),
            "RE SC EX END");

  tools::ReportInputs inputs;
  inputs.traces.push_back(std::move(trace));
  std::ostringstream report;
  tools::write_report(inputs, report);
  EXPECT_NE(report.str().find("measured pattern `RE SC EX END`"), std::string::npos);
  EXPECT_NE(report.str().find("matches the paper figure"), std::string::npos);
}

TEST(CausalTrace, ReportReproducesFig7EagerPrimaryPattern) {
  Cluster cluster(testing::quiet_config(TechniqueKind::EagerPrimary));
  ASSERT_TRUE(cluster.run_op(0, op_put("item-x", "update")).ok);
  cluster.settle(2 * sim::kSec);

  auto trace = exported_trace(cluster, "eager-primary-copy-1");
  const auto requests = sim::requests(trace.tracer);
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(sim::pattern_to_string(sim::pattern(trace.tracer, requests.front())),
            "RE EX AC END");

  tools::ReportInputs inputs;
  inputs.traces.push_back(std::move(trace));
  std::ostringstream report;
  tools::write_report(inputs, report);
  EXPECT_NE(report.str().find("measured pattern `RE EX AC END`"), std::string::npos);
  EXPECT_NE(report.str().find("matches the paper figure"), std::string::npos);
}

TEST(CausalTrace, LamportClocksRespectCausalOrderOnFlows) {
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  ASSERT_TRUE(cluster.run_op(0, op_put("item-x", "update")).ok);

  // Straight from the tracer: every cross-node delivery must advance the
  // receiver's Lamport clock past the sender's send stamp. Flows whose
  // message is still in flight have no receive stamp yet — skip those.
  std::size_t delivered = 0;
  for (const auto& flow : cluster.sim().tracer().flows()) {
    if (flow.lamport_recv == 0) continue;
    ++delivered;
    EXPECT_GT(flow.lamport_recv, flow.lamport_send)
        << flow.type << " " << flow.from << "->" << flow.to;
  }
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace repli::core

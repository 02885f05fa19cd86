#include "db/tpc.hh"

#include <gtest/gtest.h>

#include <map>

#include "gcs/component.hh"
#include "sim/simulator.hh"

namespace repli::db {
namespace {

class TpcNode : public gcs::ComponentHost {
 public:
  TpcNode(sim::NodeId id, sim::Simulator& sim)
      : ComponentHost(id, sim, "tpc-node"), tpc(*this, 1) {
    add_component(tpc);
    tpc.set_vote_handler([this](const std::string& txn, const std::string& payload) {
      payloads[txn] = payload;
      return vote_yes;
    });
    tpc.set_outcome_handler([this](const std::string& txn, bool commit) {
      outcomes[txn] = commit;
    });
  }

  TwoPhaseCommit tpc;
  bool vote_yes = true;
  std::map<std::string, std::string> payloads;
  std::map<std::string, bool> outcomes;
};

TEST(TwoPhaseCommit, UnanimousYesCommitsEverywhere) {
  sim::Simulator sim(1);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  bool coordinator_done = false;
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "writeset-bytes",
                           [&](const std::string&, bool commit) {
                             coordinator_done = true;
                             EXPECT_TRUE(commit);
                           });
  sim.run_until(2 * sim::kSec);
  EXPECT_TRUE(coordinator_done);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->outcomes.contains("t1")) << "node " << n->id();
    EXPECT_TRUE(n->outcomes.at("t1"));
    EXPECT_EQ(n->payloads.at("t1"), "writeset-bytes");
    EXPECT_TRUE(n->tpc.in_doubt().empty());
  }
}

TEST(TwoPhaseCommit, SingleNoVoteAbortsGlobally) {
  sim::Simulator sim(2);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  nodes[2]->vote_yes = false;
  bool committed = true;
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "",
                           [&](const std::string&, bool commit) { committed = commit; });
  sim.run_until(2 * sim::kSec);
  EXPECT_FALSE(committed);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->outcomes.contains("t1"));
    EXPECT_FALSE(n->outcomes.at("t1"));
    EXPECT_TRUE(n->tpc.in_doubt().empty());
  }
}

TEST(TwoPhaseCommit, CoordinatorsOwnNoVoteAbortsGlobally) {
  // The coordinator's vote is counted locally, by the same rule as the
  // remote ones: its no aborts at once, and the participants' later yes
  // votes are ignored.
  sim::Simulator sim(2);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  nodes[0]->vote_yes = false;
  int done_calls = 0;
  bool committed = true;
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "", [&](const std::string&, bool commit) {
    ++done_calls;
    committed = commit;
  });
  sim.run_until(2 * sim::kSec);
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(committed);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->outcomes.contains("t1")) << "node " << n->id();
    EXPECT_FALSE(n->outcomes.at("t1"));
    EXPECT_TRUE(n->tpc.in_doubt().empty());
  }
}

TEST(TwoPhaseCommit, ParticipantCrashBeforeVotingAborts) {
  sim::Simulator sim(3);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  sim.crash(2);
  bool committed = true;
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "",
                           [&](const std::string&, bool commit) { committed = commit; });
  sim.run_until(2 * sim::kSec);
  EXPECT_FALSE(committed) << "commit despite a silent participant";
  ASSERT_TRUE(nodes[1]->outcomes.contains("t1"));
  EXPECT_FALSE(nodes[1]->outcomes.at("t1"));
}

TEST(TwoPhaseCommit, CoordinatorCrashAfterPrepareBlocksParticipants) {
  // The blocking behaviour the paper calls out: yes-voters stay in doubt.
  sim::Simulator sim(4);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "", [](const std::string&, bool) {});
  // Crash the coordinator just after prepares go out, before decisions.
  sim.schedule_at(200, [&] { sim.crash(0); });
  sim.run_until(5 * sim::kSec);
  for (auto* n : {nodes[1], nodes[2]}) {
    EXPECT_FALSE(n->outcomes.contains("t1")) << "node " << n->id() << " resolved without coordinator";
    EXPECT_TRUE(n->tpc.in_doubt().contains("t1")) << "node " << n->id() << " not blocked";
  }
}

TEST(TwoPhaseCommit, CoordinatorAloneCommitsLocally) {
  sim::Simulator sim(5);
  auto& node = sim.spawn<TpcNode>();
  bool committed = false;
  node.tpc.coordinate("t1", {0}, "solo", [&](const std::string&, bool c) { committed = c; });
  sim.run_until(1 * sim::kSec);
  EXPECT_TRUE(committed);
  EXPECT_TRUE(node.outcomes.at("t1"));
}

TEST(TwoPhaseCommit, ConcurrentTransactionsResolveIndependently) {
  sim::Simulator sim(6);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  std::map<std::string, bool> results;
  nodes[0]->tpc.coordinate("ta", {0, 1, 2}, "",
                           [&](const std::string& t, bool c) { results[t] = c; });
  nodes[1]->tpc.coordinate("tb", {0, 1, 2}, "",
                           [&](const std::string& t, bool c) { results[t] = c; });
  sim.run_until(2 * sim::kSec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.at("ta"));
  EXPECT_TRUE(results.at("tb"));
}

TEST(TwoPhaseCommit, LossyNetworkStillResolves) {
  sim::NetworkConfig net;
  net.drop_probability = 0.3;
  sim::Simulator sim(7, net);
  std::vector<TpcNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<TpcNode>());
  bool committed = false;
  nodes[0]->tpc.coordinate("t1", {0, 1, 2}, "",
                           [&](const std::string&, bool c) { committed = c; });
  sim.run_until(10 * sim::kSec);
  EXPECT_TRUE(committed) << "ARQ should absorb loss";
  for (auto* n : nodes) EXPECT_TRUE(n->outcomes.at("t1"));
}

}  // namespace
}  // namespace repli::db

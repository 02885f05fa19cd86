#include "gcs/consensus.hh"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

class ConsensusNode : public ComponentHost {
 public:
  ConsensusNode(sim::NodeId id, sim::Simulator& sim, const Group& group)
      : ComponentHost(id, sim, "consensus-node"),
        fd(*this, group),
        consensus(*this, group, fd, 10) {
    add_component(fd);
    add_component(consensus);
    consensus.set_decide([this](std::uint64_t instance, const std::string& value) {
      decisions[instance] = value;
    });
  }

  FailureDetector fd;
  Consensus consensus;
  std::map<std::uint64_t, std::string> decisions;
};

class ConsensusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusSweep, AgreementAndValidityAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  sim::NetworkConfig net;
  net.drop_probability = 0.05;
  net.jitter_mean = 200;
  sim::Simulator sim(seed, net);
  const auto group = testing::first_n(5);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  std::set<std::string> proposed;
  for (auto* n : nodes) {
    const std::string v = "value-from-" + std::to_string(n->id());
    proposed.insert(v);
    n->consensus.propose(1, v);
  }
  sim.run_until(5 * sim::kSec);
  ASSERT_TRUE(nodes[0]->decisions.contains(1)) << "no decision, seed " << seed;
  const std::string& decided = nodes[0]->decisions.at(1);
  EXPECT_TRUE(proposed.contains(decided)) << "validity violated";
  for (auto* n : nodes) {
    ASSERT_TRUE(n->decisions.contains(1)) << "node " << n->id() << " undecided";
    EXPECT_EQ(n->decisions.at(1), decided) << "agreement violated at node " << n->id();
    EXPECT_TRUE(n->consensus.has_decided(1));
    EXPECT_EQ(n->consensus.decision(1), decided);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Consensus, SingleProposerValueWins) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  nodes[2]->consensus.propose(1, "only-choice");
  sim.run_until(2 * sim::kSec);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->decisions.contains(1));
    EXPECT_EQ(n->decisions.at(1), "only-choice");
  }
}

TEST(Consensus, DecidesDespiteCoordinatorCrash) {
  // Node 0 coordinates round 0; crash it right after proposals start.
  sim::Simulator sim(42);
  const auto group = testing::first_n(5);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  for (auto* n : nodes) n->consensus.propose(1, "v" + std::to_string(n->id()));
  sim.schedule_at(1 * sim::kMsec, [&] { sim.crash(0); });
  sim.run_until(10 * sim::kSec);
  std::optional<std::string> decided;
  for (auto* n : nodes) {
    if (n->id() == 0) continue;
    ASSERT_TRUE(n->decisions.contains(1)) << "node " << n->id() << " undecided after crash";
    if (!decided) decided = n->decisions.at(1);
    EXPECT_EQ(n->decisions.at(1), *decided);
  }
}

TEST(Consensus, ToleratesMinorityCrashes) {
  sim::Simulator sim(7);
  const auto group = testing::first_n(5);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  sim.crash(1);
  sim.crash(3);
  for (auto* n : nodes) {
    if (!n->crashed()) n->consensus.propose(1, "survivor-" + std::to_string(n->id()));
  }
  sim.run_until(10 * sim::kSec);
  std::optional<std::string> decided;
  for (auto* n : nodes) {
    if (n->crashed()) continue;
    ASSERT_TRUE(n->decisions.contains(1));
    if (!decided) decided = n->decisions.at(1);
    EXPECT_EQ(n->decisions.at(1), *decided);
  }
}

TEST(Consensus, IndependentInstancesDecideIndependently) {
  sim::Simulator sim(3);
  const auto group = testing::first_n(3);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  for (std::uint64_t k = 1; k <= 5; ++k) {
    for (auto* n : nodes) n->consensus.propose(k, "k" + std::to_string(k) + "-n" + std::to_string(n->id()));
  }
  sim.run_until(10 * sim::kSec);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(nodes[0]->decisions.contains(k)) << "instance " << k;
    const auto& v = nodes[0]->decisions.at(k);
    EXPECT_TRUE(v.starts_with("k" + std::to_string(k))) << "cross-instance value leak";
    for (auto* n : nodes) EXPECT_EQ(n->decisions.at(k), v);
  }
}

TEST(Consensus, DeferredInitialValueProviderUsed) {
  // Nobody proposes; everyone participates; the round-0 coordinator's
  // provider supplies the value on demand (semi-passive building block).
  sim::Simulator sim(5);
  const auto group = testing::first_n(3);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  int provider_calls = 0;
  for (auto* n : nodes) {
    n->consensus.set_value_provider([&provider_calls, n](std::uint64_t) {
      ++provider_calls;
      return std::optional<std::string>("computed-by-" + std::to_string(n->id()));
    });
  }
  sim.start_all();
  for (auto* n : nodes) n->consensus.participate(1);
  sim.run_until(5 * sim::kSec);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->decisions.contains(1));
    EXPECT_EQ(n->decisions.at(1), "computed-by-0");  // round-0 coordinator is node 0
  }
  EXPECT_EQ(provider_calls, 1) << "deferred value computed more than once";
}

TEST(Consensus, DeferredProviderFallsToNextCoordinatorOnCrash) {
  sim::Simulator sim(9);
  const auto group = testing::first_n(3);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  for (auto* n : nodes) {
    n->consensus.set_value_provider(
        [n](std::uint64_t) { return std::optional<std::string>("from-" + std::to_string(n->id())); });
  }
  sim.start_all();
  sim.crash(0);
  for (auto* n : nodes) {
    if (!n->crashed()) n->consensus.participate(1);
  }
  sim.run_until(10 * sim::kSec);
  for (auto* n : nodes) {
    if (n->crashed()) continue;
    ASSERT_TRUE(n->decisions.contains(1));
    EXPECT_EQ(n->decisions.at(1), "from-1");  // next coordinator in rotation
  }
}

TEST(Consensus, DuplicateProposalIsIgnoredLocally) {
  sim::Simulator sim(2);
  const auto group = testing::first_n(3);
  std::vector<ConsensusNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ConsensusNode>(group));
  sim.start_all();
  nodes[0]->consensus.propose(1, "first");
  nodes[0]->consensus.propose(1, "second");  // must not replace "first"
  sim.run_until(2 * sim::kSec);
  for (auto* n : nodes) {
    ASSERT_TRUE(n->decisions.contains(1));
    EXPECT_EQ(n->decisions.at(1), "first");
  }
}

}  // namespace
}  // namespace repli::gcs

// Property tests for Atomic Broadcast, parameterized over both
// implementations (fixed sequencer, consensus-based) and multiple seeds:
// total order, agreement, no duplication, no creation.
#include "gcs/abcast.hh"

#include <gtest/gtest.h>

#include <memory>

#include "gcs/abcast_consensus.hh"
#include "gcs/abcast_sequencer.hh"
#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

using testing::note;

enum class Impl { Sequencer, Consensus };

std::string impl_name(Impl impl) {
  return impl == Impl::Sequencer ? "Sequencer" : "Consensus";
}

class AbcastNode : public ComponentHost {
 public:
  AbcastNode(sim::NodeId id, sim::Simulator& sim, const Group& group, Impl impl)
      : ComponentHost(id, sim, "abcast-node"), fd(*this, group) {
    add_component(fd);
    if (impl == Impl::Sequencer) {
      abcast = std::make_unique<SequencerAbcast>(*this, group, fd, 10);
    } else {
      abcast = std::make_unique<ConsensusAbcast>(*this, group, fd, 10);
    }
    add_component(*abcast);
    abcast->set_deliver([this](sim::NodeId origin, wire::MessagePtr msg) {
      delivered.emplace_back(origin, testing::note_text(msg));
    });
  }

  FailureDetector fd;
  std::unique_ptr<AtomicBroadcast> abcast;
  std::vector<std::pair<sim::NodeId, std::string>> delivered;
};

struct Case {
  Impl impl;
  std::uint64_t seed;
  double drop;
};

class AbcastProperties : public ::testing::TestWithParam<Case> {};

TEST_P(AbcastProperties, TotalOrderAgreementNoDupNoCreation) {
  const Case c = GetParam();
  sim::NetworkConfig net;
  net.drop_probability = c.drop;
  net.jitter_mean = 300;
  sim::Simulator sim(c.seed, net);
  const auto group = testing::first_n(4);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, c.impl));
  sim.start_all();

  std::set<std::string> sent;
  const int per_node = 8;
  for (int round = 0; round < per_node; ++round) {
    sim.schedule_at(round * 2 * sim::kMsec, [&, round] {
      for (auto* n : nodes) {
        const std::string text = std::to_string(n->id()) + ":" + std::to_string(round);
        n->abcast->abcast(note(text));
      }
    });
  }
  for (auto* n : nodes) {
    for (int round = 0; round < per_node; ++round) {
      sent.insert(std::to_string(n->id()) + ":" + std::to_string(round));
    }
  }
  sim.run_until(60 * sim::kSec);

  // Agreement + completeness: every node delivered every message.
  for (const auto* n : nodes) {
    ASSERT_EQ(n->delivered.size(), sent.size())
        << impl_name(c.impl) << " node " << n->id() << " seed " << c.seed;
    std::set<std::string> unique;
    for (const auto& [o, t] : n->delivered) {
      EXPECT_TRUE(sent.contains(t)) << "created message " << t;
      EXPECT_TRUE(unique.insert(t).second) << "duplicate delivery of " << t;
    }
  }
  // Total order: identical delivery sequence everywhere.
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i]->delivered, nodes[0]->delivered)
        << impl_name(c.impl) << ": nodes 0 and " << i << " disagree, seed " << c.seed;
  }
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    out.push_back({Impl::Sequencer, seed, 0.0});
    out.push_back({Impl::Consensus, seed, 0.0});
    out.push_back({Impl::Consensus, seed, 0.1});  // consensus variant under loss
    out.push_back({Impl::Sequencer, seed, 0.05});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbcastProperties, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const auto& c = info.param;
                           return impl_name(c.impl) + "_seed" + std::to_string(c.seed) + "_drop" +
                                  std::to_string(static_cast<int>(c.drop * 100));
                         });

TEST(SequencerAbcast, SelfDeliveryWhenAlone) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(1);
  auto& n = sim.spawn<AbcastNode>(group, Impl::Sequencer);
  sim.start_all();
  n.abcast->abcast(note("solo"));
  sim.run_until(1 * sim::kSec);
  ASSERT_EQ(n.delivered.size(), 1u);
  EXPECT_EQ(n.delivered[0].second, "solo");
}

TEST(SequencerAbcast, TableHoldsOnlyUndeliveredMessages) {
  sim::Simulator sim(5);
  const auto group = testing::first_n(3);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Sequencer));
  sim.start_all();
  const auto* at2 = dynamic_cast<SequencerAbcast*>(nodes[2]->abcast.get());
  ASSERT_NE(at2, nullptr);
  nodes[2]->abcast->abcast(note("first"));
  EXPECT_EQ(at2->held(), 1u);  // its own payload, awaiting the sequencer's order
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    sim.schedule_at(round * sim::kMsec, [&, round] {
      for (auto* n : nodes) n->abcast->abcast(note(std::to_string(round)));
    });
  }
  sim.run_until(2 * sim::kSec);
  for (const auto* n : nodes) {
    EXPECT_EQ(n->delivered.size(), 1u + 3u * kRounds) << "node " << n->id();
    EXPECT_EQ(dynamic_cast<const SequencerAbcast&>(*n->abcast).held(), 0u)
        << "node " << n->id() << " still holds delivered messages";
  }
}

TEST(SequencerAbcast, LateDuplicateOrderForADeliveredIdIsIgnored) {
  sim::Simulator sim(5);
  const auto group = testing::first_n(3);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Sequencer));
  sim.start_all();
  nodes[1]->abcast->abcast(note("a"));
  sim.run_until(100 * sim::kMsec);
  for (const auto* n : nodes) ASSERT_EQ(n->delivered.size(), 1u);

  // A deposed sequencer's order for the delivered (1, 1), at a fresh gseq,
  // flooded from node 0 and reaching node 2 late.
  AbOrder stale;
  stale.origin = 1;
  stale.lseq = 1;
  stale.gseq = 5;
  FloodData flood;
  flood.channel = 10;
  flood.origin = 0;
  flood.seq = 1000;
  flood.payload = wire::to_blob(stale);
  auto link = std::make_shared<LinkData>();
  link->channel = 10;
  link->seq = 1000;
  link->payload = wire::to_blob(flood);
  EXPECT_TRUE(nodes[2]->abcast->handle(0, link));

  nodes[1]->abcast->abcast(note("b"));
  sim.run_until(200 * sim::kMsec);
  const std::vector<std::pair<sim::NodeId, std::string>> expected = {{1, "a"}, {1, "b"}};
  for (const auto* n : nodes) {
    EXPECT_EQ(n->delivered, expected) << "node " << n->id();
    EXPECT_EQ(dynamic_cast<const SequencerAbcast&>(*n->abcast).held(), 0u);
  }
}

TEST(SequencerAbcast, FailoverContinuesOrdering) {
  sim::Simulator sim(11);
  const auto group = testing::first_n(3);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Sequencer));
  sim.start_all();

  for (int i = 0; i < 5; ++i) nodes[1]->abcast->abcast(note("before-" + std::to_string(i)));
  // Crash the sequencer (node 0) mid-stream, then keep broadcasting.
  sim.schedule_at(50 * sim::kMsec, [&] { sim.crash(0); });
  sim.schedule_at(300 * sim::kMsec, [&] {
    for (int i = 0; i < 5; ++i) nodes[2]->abcast->abcast(note("after-" + std::to_string(i)));
  });
  sim.run_until(10 * sim::kSec);

  for (const auto* n : {nodes[1], nodes[2]}) {
    ASSERT_EQ(n->delivered.size(), 10u) << "node " << n->id();
  }
  EXPECT_EQ(nodes[1]->delivered, nodes[2]->delivered);
  const auto* seq = dynamic_cast<SequencerAbcast*>(nodes[1]->abcast.get());
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->current_sequencer(), 1);
}

TEST(ConsensusAbcast, SurvivesMinorityCrashWithLoss) {
  sim::NetworkConfig net;
  net.drop_probability = 0.1;
  sim::Simulator sim(13, net);
  const auto group = testing::first_n(5);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Consensus));
  sim.start_all();
  for (auto* n : nodes) n->abcast->abcast(note("pre-" + std::to_string(n->id())));
  sim.schedule_at(5 * sim::kMsec, [&] {
    sim.crash(0);
    sim.crash(4);
  });
  sim.schedule_at(500 * sim::kMsec,
                  [&] { nodes[2]->abcast->abcast(note("post-crash")); });
  sim.run_until(60 * sim::kSec);
  // The three survivors agree on one total order that includes post-crash
  // traffic; pre-crash messages may or may not have made it in (the two
  // crashed nodes might have died before dissemination).
  const auto& ref = nodes[1]->delivered;
  EXPECT_EQ(nodes[2]->delivered, ref);
  EXPECT_EQ(nodes[3]->delivered, ref);
  bool has_post = false;
  for (const auto& [o, t] : ref) has_post |= (t == "post-crash");
  EXPECT_TRUE(has_post);
}

TEST(SequencerAbcast, TransientFalseSuspicionDoesNotSplitBrain) {
  // Partition node 0 (the sequencer) away from 1 and 2 briefly: they
  // falsely suspect it, but the takeover grace period outlasts the
  // partition, so nobody self-sequences and the total order stays intact.
  sim::Simulator sim(31);
  const auto group = testing::first_n(3);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Sequencer));
  sim.start_all();
  nodes[1]->abcast->abcast(note("before"));
  sim.run_until(20 * sim::kMsec);

  sim.net().set_partition([](sim::NodeId from, sim::NodeId to) {
    return (from == 0) != (to == 0);
  });
  // Both sides broadcast during the partition (suspicion will fire).
  sim.schedule_at(25 * sim::kMsec, [&] {
    nodes[1]->abcast->abcast(note("majority-side"));
    nodes[0]->abcast->abcast(note("isolated-side"));
  });
  sim.schedule_at(45 * sim::kMsec, [&] { sim.net().set_partition(nullptr); });
  sim.run_until(10 * sim::kSec);

  for (const auto* n : nodes) {
    ASSERT_EQ(n->delivered.size(), 3u) << "node " << n->id();
  }
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  EXPECT_EQ(nodes[1]->delivered, nodes[2]->delivered);
}

TEST(SequencerAbcast, BacklogSequencedAfterGraceOnRealCrash) {
  sim::Simulator sim(33);
  const auto group = testing::first_n(3);
  std::vector<AbcastNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<AbcastNode>(group, Impl::Sequencer));
  sim.start_all();
  // Crash the sequencer, then broadcast immediately: the message waits out
  // the grace period and is then ordered by the new sequencer.
  sim.schedule_at(10 * sim::kMsec, [&] { sim.crash(0); });
  sim.schedule_at(12 * sim::kMsec, [&] { nodes[2]->abcast->abcast(note("orphan")); });
  sim.run_until(5 * sim::kSec);
  ASSERT_EQ(nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(nodes[1]->delivered[0].second, "orphan");
  EXPECT_EQ(nodes[1]->delivered, nodes[2]->delivered);
}

}  // namespace
}  // namespace repli::gcs

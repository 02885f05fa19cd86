#include "gcs/flood.hh"

#include <gtest/gtest.h>

#include <set>

#include "obs/profile.hh"
#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

using testing::Note;
using testing::note;

class FloodNode : public ComponentHost {
 public:
  FloodNode(sim::NodeId id, sim::Simulator& sim, const Group& group)
      : ComponentHost(id, sim, "flood-node"), flood(*this, group, 1) {
    add_component(flood);
    flood.set_deliver([this](sim::NodeId origin, wire::MessagePtr msg) {
      delivered.emplace_back(origin, testing::note_text(msg));
    });
  }

  Flooder flood;
  std::vector<std::pair<sim::NodeId, std::string>> delivered;
};

std::multiset<std::string> texts(const FloodNode& n) {
  std::multiset<std::string> out;
  for (const auto& [origin, text] : n.delivered) out.insert(text);
  return out;
}

TEST(Flooder, BroadcastReachesEveryoneIncludingSelf) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(4);
  std::vector<FloodNode*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<FloodNode>(group));
  nodes[2]->flood.rbcast(note("hello"));
  sim.run();
  for (const auto* n : nodes) {
    ASSERT_EQ(n->delivered.size(), 1u);
    EXPECT_EQ(n->delivered[0].first, 2);
    EXPECT_EQ(n->delivered[0].second, "hello");
  }
}

TEST(Flooder, ExactlyOnceUnderLoss) {
  sim::NetworkConfig net;
  net.drop_probability = 0.3;
  sim::Simulator sim(17, net);
  const auto group = testing::first_n(3);
  std::vector<FloodNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<FloodNode>(group));
  for (int i = 0; i < 30; ++i) nodes[static_cast<std::size_t>(i % 3)]->flood.rbcast(note(std::to_string(i)));
  sim.run_until(30 * sim::kSec);
  for (const auto* n : nodes) {
    ASSERT_EQ(n->delivered.size(), 30u) << "node " << n->id();
    std::set<std::string> unique;
    for (const auto& [o, t] : n->delivered) unique.insert(t);
    EXPECT_EQ(unique.size(), 30u) << "duplicates at node " << n->id();
  }
}

TEST(Flooder, AgreementWhenOriginCrashesMidBroadcast) {
  // The origin crashes immediately after rbcast: its initial transmissions
  // are in flight. Whoever receives one relays, so either nobody delivers
  // (only possible if every initial copy is lost) or every correct node
  // delivers.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::NetworkConfig net;
    net.drop_probability = 0.5;
    sim::Simulator sim(seed, net);
    const auto group = testing::first_n(4);
    std::vector<FloodNode*> nodes;
    for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<FloodNode>(group));
    nodes[0]->flood.rbcast(note("last words"));
    sim.schedule_at(1, [&] { sim.crash(0); });
    sim.run_until(60 * sim::kSec);
    const std::size_t at1 = nodes[1]->delivered.size();
    const std::size_t at2 = nodes[2]->delivered.size();
    const std::size_t at3 = nodes[3]->delivered.size();
    EXPECT_EQ(at1, at2) << "agreement violated, seed " << seed;
    EXPECT_EQ(at2, at3) << "agreement violated, seed " << seed;
  }
}

TEST(Flooder, ConcurrentBroadcastsAllDelivered) {
  sim::NetworkConfig net;
  net.jitter_mean = 300;
  sim::Simulator sim(23, net);
  const auto group = testing::first_n(5);
  std::vector<FloodNode*> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(&sim.spawn<FloodNode>(group));
  for (int round = 0; round < 10; ++round) {
    for (auto* n : nodes) n->flood.rbcast(note(std::to_string(n->id()) + ":" + std::to_string(round)));
  }
  sim.run_until(30 * sim::kSec);
  const auto expected = texts(*nodes[0]);
  EXPECT_EQ(expected.size(), 50u);
  for (const auto* n : nodes) EXPECT_EQ(texts(*n), expected) << "node " << n->id();
}

TEST(Flooder, DuplicateAndOutOfOrderRelaysDeliverOnceThenCollapse) {
  // Relays of origin 2's broadcasts reach node 0 over its link from two
  // senders, duplicated and out of order (3, 3, 1, 2, 2). Each broadcast
  // is delivered once; the ones ahead of a gap are held until it fills,
  // after which the origin's state is a bare watermark again.
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  std::vector<FloodNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<FloodNode>(group));
  FloodNode& n0 = *nodes[0];
  std::uint64_t link_seq[3] = {0, 0, 0};
  const auto relay = [&](sim::NodeId via, std::uint64_t seq) {
    FloodData data;
    data.channel = 1;
    data.origin = 2;
    data.seq = seq;
    data.payload = wire::to_blob(note("m" + std::to_string(seq)));
    auto link = std::make_shared<LinkData>();
    link->channel = 1;
    link->seq = ++link_seq[via];
    link->payload = wire::to_blob(data);
    EXPECT_TRUE(n0.flood.handle(via, link));
  };
  relay(1, 3);
  EXPECT_EQ(n0.flood.out_of_order(2), 1u);
  relay(2, 3);
  relay(1, 1);
  EXPECT_EQ(n0.flood.out_of_order(2), 1u);
  relay(2, 2);
  relay(1, 2);
  EXPECT_EQ(n0.flood.out_of_order(2), 0u);
  sim.run();
  const std::vector<std::pair<sim::NodeId, std::string>> expected = {
      {2, "m3"}, {2, "m1"}, {2, "m2"}};
  EXPECT_EQ(n0.delivered, expected);
  // Node 0 relayed each broadcast once to node 1 (never back to origin 2).
  EXPECT_EQ(texts(*nodes[1]), (std::multiset<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(nodes[1]->flood.out_of_order(2), 0u);
  EXPECT_TRUE(nodes[2]->delivered.empty());
}

TEST(Flooder, SeparateChannelsAreIndependent) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(2);

  class TwoFloodNode : public ComponentHost {
   public:
    TwoFloodNode(sim::NodeId id, sim::Simulator& s, const Group& g)
        : ComponentHost(id, s, "two-flood"), f1(*this, g, 1), f2(*this, g, 3) {
      add_component(f1);
      add_component(f2);
      f1.set_deliver([this](sim::NodeId, wire::MessagePtr m) { via1.push_back(testing::note_text(m)); });
      f2.set_deliver([this](sim::NodeId, wire::MessagePtr m) { via2.push_back(testing::note_text(m)); });
    }
    Flooder f1, f2;
    std::vector<std::string> via1, via2;
  };

  auto& a = sim.spawn<TwoFloodNode>(group);
  auto& b = sim.spawn<TwoFloodNode>(group);
  a.f1.rbcast(note("one"));
  b.f2.rbcast(note("two"));
  sim.run();
  EXPECT_EQ(a.via1, (std::vector<std::string>{"one"}));
  EXPECT_EQ(a.via2, (std::vector<std::string>{"two"}));
  EXPECT_EQ(b.via1, (std::vector<std::string>{"one"}));
  EXPECT_EQ(b.via2, (std::vector<std::string>{"two"}));
}

/// A flood member that only counts deliveries, so the test's own
/// bookkeeping allocates nothing.
class CountingFloodNode : public ComponentHost {
 public:
  CountingFloodNode(sim::NodeId id, sim::Simulator& sim, const Group& group)
      : ComponentHost(id, sim, "counting-flood-node"), flood(*this, group, 1) {
    add_component(flood);
    flood.set_deliver([this](sim::NodeId, wire::MessagePtr) { ++delivered; });
  }
  Flooder flood;
  int delivered = 0;
};

/// Heap allocations per rbcast in a warmed-up group of `n`, each broadcast
/// run to quiescence (every relay sent and acknowledged).
double allocs_per_rbcast(int n) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(n);
  std::vector<CountingFloodNode*> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(&sim.spawn<CountingFloodNode>(group));
  const Note msg = note("a payload longer than the small-string buffer");
  const auto broadcast = [&](int count) {
    for (int i = 0; i < count; ++i) {
      nodes[static_cast<std::size_t>(i % n)]->flood.rbcast(msg);
      sim.run();
    }
  };
  broadcast(200);  // warm-up: pools, rings and tables reach their working size
  constexpr int kMeasured = 200;
  const std::uint64_t before = obs::thread_alloc_count();
  broadcast(kMeasured);
  const std::uint64_t after = obs::thread_alloc_count();
  for (const auto* node : nodes) EXPECT_EQ(node->delivered, 400);
  return static_cast<double>(after - before) / kMeasured;
}

TEST(Flooder, AllocationsPerBroadcastDoNotGrowWithTheGroup) {
  // A broadcast is encoded once and a relay forwards the bytes it received:
  // every destination's link entry shares one pooled buffer. A copy per
  // destination would cost (n-1) allocations per hop at each of n members,
  // about 2 per rbcast at 3 members and 36 at 7. What remains is the
  // trace's record of each message (one block per several hundred), which
  // grows with the n^2 messages but stays below one per rbcast.
  const double small = allocs_per_rbcast(3);
  const double large = allocs_per_rbcast(7);
  EXPECT_LT(small, 1.0);
  EXPECT_LT(large, 1.0) << "3 members: " << small << " allocations per rbcast";
}

}  // namespace
}  // namespace repli::gcs

#include "gcs/link.hh"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

using testing::Note;
using testing::note;
using testing::note_text;

class LinkNode : public ComponentHost {
 public:
  LinkNode(sim::NodeId id, sim::Simulator& sim)
      : ComponentHost(id, sim, "link-node"), link(*this, 1) {
    add_component(link);
    link.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
      received.emplace_back(from, testing::note_text(msg));
      received_at.push_back(now());
    });
  }

  ReliableLink link;
  std::vector<std::pair<sim::NodeId, std::string>> received;
  std::vector<sim::Time> received_at;
};

TEST(ReliableLink, DeliversWithoutLoss) {
  sim::Simulator sim(1);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  for (int i = 0; i < 10; ++i) a.link.send_reliable(b.id(), note("m" + std::to_string(i)));
  sim.run();
  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_EQ(a.link.unacked(), 0u);
}

TEST(ReliableLink, SurvivesHeavyLossExactlyOnce) {
  sim::NetworkConfig net;
  net.drop_probability = 0.4;
  sim::Simulator sim(7, net);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  const int n = 100;
  for (int i = 0; i < n; ++i) a.link.send_reliable(b.id(), note(std::to_string(i)));
  sim.run_until(10 * sim::kSec);
  ASSERT_EQ(b.received.size(), static_cast<std::size_t>(n)) << "lost or duplicated messages";
  std::set<std::string> unique;
  for (const auto& [from, text] : b.received) unique.insert(text);
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(a.link.unacked(), 0u);
}

TEST(ReliableLink, BidirectionalTrafficKeepsChannelsSeparate) {
  sim::Simulator sim(3);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  a.link.send_reliable(b.id(), note("from-a"));
  b.link.send_reliable(a.id(), note("from-b"));
  sim.run();
  ASSERT_EQ(a.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received[0].second, "from-b");
  EXPECT_EQ(b.received[0].second, "from-a");
}

TEST(ReliableLink, GivesUpAfterMaxRetriesToCrashedPeer) {
  sim::Simulator sim(1);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  sim.crash(b.id());
  a.link.send_reliable(b.id(), note("into the void"));
  EXPECT_EQ(a.link.unacked(), 1u);
  // Every retransmission tick until the last one keeps the message.
  sim.run_until(kLinkMaxRetries * kLinkRto);
  EXPECT_EQ(a.link.unacked(), 1u);
  // The tick after kLinkMaxRetries retransmissions gives up.
  sim.run_until((kLinkMaxRetries + 1) * kLinkRto);
  EXPECT_EQ(a.link.unacked(), 0u);  // gave up, simulation quiesces
  EXPECT_TRUE(b.received.empty());
}

TEST(ReliableLink, RetransmissionsAreDeduplicated) {
  // Force retransmission by dropping the first ack direction only.
  sim::NetworkConfig net;
  net.drop_probability = 0.0;
  sim::Simulator sim(1, net);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  // Block b->a (acks) for a few retransmission timeouts, then heal.
  sim.net().set_partition([&](sim::NodeId from, sim::NodeId to) {
    return from == b.id() && to == a.id();
  });
  a.link.send_reliable(b.id(), note("once"));
  sim.schedule_at(3 * kLinkRto, [&] { sim.net().set_partition(nullptr); });
  sim.run_until(1 * sim::kSec);
  EXPECT_GT(sim.net().per_type_count().at("gcs.LinkData"), 1) << "no retransmissions";
  ASSERT_EQ(b.received.size(), 1u) << "duplicate deliveries after retransmission";
  EXPECT_EQ(a.link.unacked(), 0u);
}

TEST(ReliableLink, SharedSeqCounterRetransmissionsToTwoPeersDeliverOnce) {
  // One link numbers LinkData for every destination from one counter, so
  // each receiver sees a gappy subset (b: 1, 3, 5; c: 2, 4, 6). With the
  // acks cut, every LinkData is retransmitted several times; each payload
  // must still be delivered exactly once at its own destination.
  sim::Simulator sim(1);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  auto& c = sim.spawn<LinkNode>();
  sim.net().set_partition([&](sim::NodeId, sim::NodeId to) { return to == a.id(); });
  for (int i = 0; i < 3; ++i) {
    a.link.send_reliable(b.id(), note("b" + std::to_string(i)));
    a.link.send_reliable(c.id(), note("c" + std::to_string(i)));
  }
  sim.schedule_at(4 * kLinkRto, [&] { sim.net().set_partition(nullptr); });
  sim.run_until(1 * sim::kSec);
  EXPECT_GT(sim.net().per_type_count().at("gcs.LinkData"), 6 * 3) << "no retransmissions";
  std::multiset<std::string> at_b;
  std::multiset<std::string> at_c;
  for (const auto& [from, text] : b.received) at_b.insert(text);
  for (const auto& [from, text] : c.received) at_c.insert(text);
  EXPECT_EQ(at_b, (std::multiset<std::string>{"b0", "b1", "b2"}));
  EXPECT_EQ(at_c, (std::multiset<std::string>{"c0", "c1", "c2"}));
  EXPECT_EQ(a.link.unacked(), 0u);
}

TEST(ReliableLink, DifferentChannelsDoNotInterfere) {
  sim::Simulator sim(1);

  class TwoLinkNode : public ComponentHost {
   public:
    TwoLinkNode(sim::NodeId id, sim::Simulator& s)
        : ComponentHost(id, s, "two-link"), link1(*this, 1), link2(*this, 2) {
      add_component(link1);
      add_component(link2);
      link1.set_deliver([this](sim::NodeId, wire::MessagePtr m, std::string_view) { via1.push_back(note_text(m)); });
      link2.set_deliver([this](sim::NodeId, wire::MessagePtr m, std::string_view) { via2.push_back(note_text(m)); });
    }
    ReliableLink link1, link2;
    std::vector<std::string> via1, via2;
  };

  auto& a = sim.spawn<TwoLinkNode>();
  auto& b = sim.spawn<TwoLinkNode>();
  a.link1.send_reliable(b.id(), note("one"));
  a.link2.send_reliable(b.id(), note("two"));
  sim.run();
  EXPECT_EQ(b.via1, (std::vector<std::string>{"one"}));
  EXPECT_EQ(b.via2, (std::vector<std::string>{"two"}));
}

/// Records the seq of every LinkData it receives and never acknowledges,
/// so the sender retransmits whatever a test has not acked by hand.
class SeqSink : public sim::Process {
 public:
  SeqSink(sim::NodeId id, sim::Simulator& sim) : Process(id, sim, "seq-sink") {}
  void on_message(sim::NodeId /*from*/, wire::MessagePtr msg) override {
    if (const auto data = wire::message_cast<LinkData>(msg)) {
      seqs.push_back(data->seq);
      at.push_back(now());
    }
  }
  std::vector<std::uint64_t> seqs;
  std::vector<sim::Time> at;
};

std::shared_ptr<LinkAck> ack_of(std::uint64_t seq) {
  auto ack = std::make_shared<LinkAck>();
  ack->channel = 1;
  ack->seq = seq;
  return ack;
}

TEST(ReliableLink, OutOfOrderAcksClearInPlaceAndRetransmitsRunInSeqOrder) {
  // No jitter: LinkData reach the sink in the order they were sent.
  sim::NetworkConfig net;
  net.jitter_mean = 0;
  sim::Simulator sim(1, net);
  auto& a = sim.spawn<LinkNode>();
  auto& sink = sim.spawn<SeqSink>();
  for (int i = 0; i < 4; ++i) a.link.send_reliable(sink.id(), note("m" + std::to_string(i)));
  EXPECT_EQ(a.link.unacked(), 4u);
  // Acks arrive out of order: 3 and 2 before 1; 4 stays unacked.
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(3)));
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(2)));
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(2)));  // a duplicate ack is a no-op
  EXPECT_EQ(a.link.unacked(), 2u);
  // One retransmission tick: the still-unacked seqs 1 and 4, ascending.
  sim.run_until(kLinkRto + kLinkRto / 2);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 1, 4}));
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(1)));
  EXPECT_EQ(a.link.unacked(), 1u);
  sim.run_until(2 * kLinkRto + kLinkRto / 2);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 1, 4, 4}));
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(4)));
  EXPECT_TRUE(a.link.handle(sink.id(), ack_of(9)));  // never sent: ignored
  EXPECT_EQ(a.link.unacked(), 0u);
  // Nothing is left to retransmit, and the next send gets the next seq.
  a.link.send_reliable(sink.id(), note("m4"));
  sim.run_until(3 * kLinkRto + kLinkRto / 2);
  EXPECT_EQ(sink.seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 1, 4, 4, 5, 5}));
}

TEST(ReliableLink, SilentPeerGetsNineTransmissionsBeforeGiveUp) {
  // Every tick up to kLinkSteadyRetries retransmits, later ones only on
  // powers of two; the entry is still given up on after kLinkMaxRetries.
  sim::NetworkConfig net;
  net.jitter_mean = 0;
  sim::Simulator sim(1, net);
  auto& a = sim.spawn<LinkNode>();
  auto& sink = sim.spawn<SeqSink>();
  a.link.send_reliable(sink.id(), note("unheard"));
  sim.run_until((kLinkMaxRetries + 1) * kLinkRto + kLinkRto / 2);
  EXPECT_EQ(a.link.unacked(), 0u);
  EXPECT_EQ(sink.seqs, std::vector<std::uint64_t>(9, 1));
  std::vector<sim::Time> ticks;
  for (const sim::Time t : sink.at) ticks.push_back((t - sink.at.front()) / kLinkRto);
  EXPECT_EQ(ticks, (std::vector<sim::Time>{0, 1, 2, 3, 4, 8, 16, 32, 64}));
}

/// When b receives a's one message if a->b is cut from the send until
/// `heal` (0: never cut).
sim::Time delivery_time_after_partition(sim::Time heal) {
  sim::NetworkConfig net;
  net.jitter_mean = 0;
  sim::Simulator sim(1, net);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  if (heal > 0) {
    sim.net().set_partition([&](sim::NodeId from, sim::NodeId to) {
      return from == a.id() && to == b.id();
    });
    sim.schedule_at(heal, [&] { sim.net().set_partition(nullptr); });
  }
  a.link.send_reliable(b.id(), note("delayed"));
  sim.run_until(1 * sim::kSec);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.link.unacked(), 0u);
  return b.received_at.empty() ? -1 : b.received_at.front();
}

TEST(ReliableLink, PartitionInsideFdTimeoutDeliversAsWithFixedRto) {
  // Under a fixed RTO the message gets through on the first tick after the
  // heal. Every partition up to kFdTimeout plus one RTO heals before tick
  // kLinkSteadyRetries, so the backoff must not delay any of them.
  const sim::Time transit = delivery_time_after_partition(0);
  for (const sim::Time heal : {1 * sim::kMsec, kLinkRto - 1, kLinkRto + 1, kFdTimeout - 1,
                               kFdTimeout + kLinkRto - 1}) {
    const sim::Time first_tick_after = (heal / kLinkRto + 1) * kLinkRto;
    EXPECT_EQ(delivery_time_after_partition(heal), first_tick_after + transit)
        << "partition healed at " << heal;
  }
}

TEST(ReliableLink, LongPartitionDeliversOnceHealed) {
  // 120 ms: past the steady ticks, so the message waits for tick 32.
  const sim::Time transit = delivery_time_after_partition(0);
  EXPECT_EQ(delivery_time_after_partition(120 * sim::kMsec), 32 * kLinkRto + transit);
}

TEST(ReliableLink, GivingUpFreesTheSharedPayload) {
  sim::Simulator sim(1);
  auto& a = sim.spawn<LinkNode>();
  auto& b = sim.spawn<LinkNode>();
  auto& c = sim.spawn<LinkNode>();
  sim.crash(b.id());
  sim.crash(c.id());
  // One encoding for both destinations: each pending entry refers to it.
  wire::Blob blob = wire::share_blob(note("into the void"));
  const std::weak_ptr<const std::string> watch = blob;
  a.link.send_blob(b.id(), blob);
  a.link.send_blob(c.id(), std::move(blob));
  EXPECT_EQ(a.link.unacked(), 2u);
  EXPECT_FALSE(watch.expired());
  sim.run_until((kLinkMaxRetries + 1) * kLinkRto);
  EXPECT_EQ(a.link.unacked(), 0u);
  EXPECT_TRUE(watch.expired()) << "a given-up entry still holds its payload";
}

}  // namespace
}  // namespace repli::gcs

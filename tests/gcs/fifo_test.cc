#include "gcs/fifo.hh"

#include <gtest/gtest.h>

#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

using testing::note;

class FifoNode : public ComponentHost {
 public:
  FifoNode(sim::NodeId id, sim::Simulator& sim)
      : ComponentHost(id, sim, "fifo-node"), fifo(*this, 1) {
    add_component(fifo);
    fifo.set_deliver([this](sim::NodeId from, wire::MessagePtr msg) {
      received.emplace_back(from, testing::note_text(msg));
    });
  }

  FifoChannel fifo;
  std::vector<std::pair<sim::NodeId, std::string>> received;
};

TEST(FifoChannel, InOrderOnCleanNetwork) {
  sim::Simulator sim(1);
  auto& a = sim.spawn<FifoNode>();
  auto& b = sim.spawn<FifoNode>();
  for (int i = 0; i < 20; ++i) a.fifo.send_fifo(b.id(), note(std::to_string(i)));
  sim.run();
  ASSERT_EQ(b.received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(b.received[static_cast<std::size_t>(i)].second, std::to_string(i));
}

TEST(FifoChannel, InOrderUnderJitterAndLoss) {
  sim::NetworkConfig net;
  net.jitter_mean = 2000;       // heavy reordering pressure
  net.drop_probability = 0.3;   // heavy loss
  sim::Simulator sim(99, net);
  auto& a = sim.spawn<FifoNode>();
  auto& b = sim.spawn<FifoNode>();
  const int n = 200;
  for (int i = 0; i < n; ++i) a.fifo.send_fifo(b.id(), note(std::to_string(i)));
  sim.run_until(30 * sim::kSec);
  ASSERT_EQ(b.received.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(b.received[static_cast<std::size_t>(i)].second, std::to_string(i))
        << "FIFO order violated at position " << i;
  }
}

TEST(FifoChannel, StreamsFromDifferentSendersAreIndependent) {
  sim::NetworkConfig net;
  net.jitter_mean = 500;
  sim::Simulator sim(5, net);
  auto& a = sim.spawn<FifoNode>();
  auto& b = sim.spawn<FifoNode>();
  auto& c = sim.spawn<FifoNode>();
  for (int i = 0; i < 50; ++i) {
    a.fifo.send_fifo(c.id(), note("a" + std::to_string(i)));
    b.fifo.send_fifo(c.id(), note("b" + std::to_string(i)));
  }
  sim.run_until(10 * sim::kSec);
  ASSERT_EQ(c.received.size(), 100u);
  int next_a = 0;
  int next_b = 0;
  for (const auto& [from, text] : c.received) {
    if (from == a.id()) {
      EXPECT_EQ(text, "a" + std::to_string(next_a++));
    } else {
      EXPECT_EQ(text, "b" + std::to_string(next_b++));
    }
  }
  EXPECT_EQ(next_a, 50);
  EXPECT_EQ(next_b, 50);
}

TEST(FifoChannel, ManyToOneFanIn) {
  sim::Simulator sim(11);
  std::vector<FifoNode*> senders;
  auto& sink = sim.spawn<FifoNode>();
  for (int i = 0; i < 5; ++i) senders.push_back(&sim.spawn<FifoNode>());
  for (int round = 0; round < 10; ++round) {
    for (auto* s : senders) s->fifo.send_fifo(sink.id(), note(std::to_string(round)));
  }
  sim.run_until(5 * sim::kSec);
  EXPECT_EQ(sink.received.size(), 50u);
}

}  // namespace
}  // namespace repli::gcs

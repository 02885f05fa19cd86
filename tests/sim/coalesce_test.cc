// Frame coalescing: with coalesce_window > 0, messages queued inside the
// window ride one physical frame. messages_sent() counts frames while
// per_type_count() keeps counting logical messages; heartbeats are exempt;
// delivery order and content are preserved.
#include <gtest/gtest.h>

#include "sim/network.hh"
#include "sim/simulator.hh"
#include "tests/sim/sim_test_util.hh"

namespace repli::sim {
namespace {

using testing::Ping;
using testing::Recorder;

/// Shares the failure detector's wire type name to probe the exemption.
struct FakeHeartbeat : wire::MessageBase<FakeHeartbeat> {
  static constexpr const char* kTypeName = "gcs.Heartbeat";
  std::int64_t n = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(n);
  }
};

NetworkConfig quiet(Time window = 0) {
  NetworkConfig cfg;
  cfg.base_latency = 100;
  cfg.jitter_mean = 0;
  cfg.bytes_per_usec = 0.0;
  cfg.coalesce_window = window;
  return cfg;
}

TEST(Coalesce, BurstSharesOnePhysicalFrame) {
  Simulator sim(1, quiet(200));
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  for (int i = 0; i < 5; ++i) a.send_ping(b.id(), i);
  sim.run();
  ASSERT_EQ(b.deliveries.size(), 5u);
  // In-order delivery, all on the same frame arrival.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.deliveries[static_cast<std::size_t>(i)].seq, i);
    EXPECT_EQ(b.deliveries[static_cast<std::size_t>(i)].at, b.deliveries[0].at);
  }
  EXPECT_EQ(sim.net().messages_sent(), 1);                     // one frame
  EXPECT_EQ(sim.net().per_type_count().at("test.Ping"), 5);    // five messages
}

TEST(Coalesce, MaxMsgsFlushesEarly) {
  Simulator sim(1, quiet(10'000));
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  const int n = 2 * kCoalesceMaxMsgs + 1;
  for (int i = 0; i < n; ++i) a.send_ping(b.id(), i);
  sim.run();
  ASSERT_EQ(b.deliveries.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(sim.net().messages_sent(), 3);  // full + full + 1
  // The full frames left at once; only the remainder waited for the window.
  EXPECT_LT(b.deliveries[0].at, 10'000);
  EXPECT_GE(b.deliveries.back().at, 10'000);
}

TEST(Coalesce, WindowZeroIsPerMessage) {
  Simulator sim(1, quiet(0));
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  for (int i = 0; i < 5; ++i) a.send_ping(b.id(), i);
  sim.run();
  ASSERT_EQ(b.deliveries.size(), 5u);
  EXPECT_EQ(sim.net().messages_sent(), 5);
}

TEST(Coalesce, SpacedSendsUseSeparateFrames) {
  Simulator sim(1, quiet(200));
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  a.send_ping(b.id(), 0);
  a.set_timer(1000, [&] { a.send_ping(b.id(), 1); });
  sim.run();
  ASSERT_EQ(b.deliveries.size(), 2u);
  EXPECT_EQ(sim.net().messages_sent(), 2);
  EXPECT_LT(b.deliveries[0].at, b.deliveries[1].at);
}

TEST(Coalesce, HeartbeatsAreExemptAndAccountingStaysExact) {
  Simulator sim(1, quiet(500));
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  // A heartbeat-typed message between two pings must neither delay for the
  // window nor fold into the frame.
  a.send_ping(b.id(), 0);
  sim.net().send(a.id(), b.id(), std::make_shared<FakeHeartbeat>());
  a.send_ping(b.id(), 1);
  sim.run();
  ASSERT_EQ(b.deliveries.size(), 2u);  // Recorder ignores the heartbeat
  EXPECT_EQ(sim.net().messages_sent(), 2);  // 1 frame + 1 heartbeat
  EXPECT_EQ(sim.net().messages_excluding("gcs.Heartbeat"), 1);
  EXPECT_EQ(sim.net().per_type_count().at("test.Ping"), 2);
}

TEST(Coalesce, SelfSendsBypassCoalescing) {
  Simulator sim(1, quiet(500));
  auto& a = sim.spawn<Recorder>();
  a.send_ping(a.id(), 0);
  sim.run();
  ASSERT_EQ(a.deliveries.size(), 1u);
  EXPECT_EQ(a.deliveries[0].at, 0);  // still immediate
}

TEST(Coalesce, DropsCountPerLogicalMessage) {
  auto cfg = quiet(200);
  cfg.drop_probability = 1.0;
  Simulator sim(1, cfg);
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  for (int i = 0; i < 4; ++i) a.send_ping(b.id(), i);
  sim.run();
  EXPECT_TRUE(b.deliveries.empty());
  EXPECT_EQ(sim.metrics().counter_value("net.dropped"), 4);
  EXPECT_EQ(sim.net().messages_sent(), 4);  // dropped sends count like legacy
}

}  // namespace
}  // namespace repli::sim

// Event slots and dense network accounting.
//
// The event heap orders 24-byte keys; each event's id, class, handler,
// owner and trace context wait in a reusable slot, the event's only record.
// These tests hold the slot lifecycle to its contract: a handler may
// schedule (and so regrow the slot vector) during its own dispatch, a
// cancel gives the slot and its captures back at once, a stale handle
// cannot cancel the newer event that reuses its slot, and the slot count
// tracks the live events' high-water mark, not run length. The network
// tests hold the per-type table and the per-link in-flight table to the
// maps they replaced.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/network.hh"
#include "sim/simulator.hh"
#include "tests/sim/sim_test_util.hh"

namespace repli::sim {
namespace {

using testing::Ping;
using testing::Recorder;

struct Pong : wire::MessageBase<Pong> {
  static constexpr const char* kTypeName = "test.Pong";
  std::int64_t seq = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(seq);
  }
};

NetworkConfig quiet() {
  NetworkConfig cfg;
  cfg.base_latency = 100;
  cfg.jitter_mean = 0;
  cfg.bytes_per_usec = 0.0;  // disable transmission delay
  return cfg;
}

TEST(EventSlots, HandlerSchedulesTenThousandEventsDuringItsOwnDispatch) {
  Simulator sim(1);
  constexpr int kChildren = 10'000;
  std::vector<int> order;
  int checksum = 0;
  // The capture outlives the scheduling loop: if the handler ran in place
  // in its slot, regrowing the slot vector would free it under the call.
  sim.schedule_at(5, [&, payload = std::vector<int>(64, 7)] {
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_after(1 + i % 3, [&order, i] { order.push_back(i); });
    }
    for (const int v : payload) checksum += v;
  });
  sim.run();
  EXPECT_EQ(checksum, 64 * 7);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChildren));
  // (time, id) order: every i % 3 == 0 child first, in schedule order.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order.back(), 9998);  // the last i % 3 == 2 child
  EXPECT_EQ(sim.events_dispatched(), static_cast<std::uint64_t>(kChildren) + 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The parent's slot was free before its children took theirs.
  EXPECT_EQ(sim.event_slots(), static_cast<std::size_t>(kChildren));
}

TEST(EventSlots, ScheduleCancelCyclesKeepTheSlotCountBounded) {
  Simulator sim(1);
  constexpr int kLive = 8;
  int ran = 0;
  for (int i = 0; i < kLive; ++i) sim.schedule_at(1'000'000, [&ran] { ++ran; });
  std::size_t peak_pending = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const auto id = sim.schedule_after(10, [&ran] { ++ran; });
    peak_pending = std::max(peak_pending, sim.pending_events());
    sim.cancel(id);
  }
  // Dead keys stay queued until bulk compaction, but each cancel frees its
  // slot at once: the churn reuses one slot.
  EXPECT_EQ(peak_pending, static_cast<std::size_t>(kLive) + 1);
  EXPECT_EQ(sim.event_slots(), static_cast<std::size_t>(kLive) + 1);
  sim.run();
  EXPECT_EQ(ran, kLive);
}

TEST(EventSlots, CancelledTiesUnderTieBreakAreReclaimed) {
  Simulator sim(1);
  sim.enable_perturbation(PerturbConfig{.seed = 9, .tie_break = true});
  constexpr int kTies = 40;  // below the compaction floor: the gather drops dead keys
  int ran = 0;
  std::vector<EventHandle> ids;
  for (int i = 0; i < kTies; ++i) ids.push_back(sim.schedule_at(10, [&ran] { ++ran; }));
  for (int i = 1; i < kTies; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  EXPECT_EQ(ran, kTies / 2);
  EXPECT_FALSE(sim.tie_decisions().empty());
  EXPECT_EQ(sim.event_slots(), static_cast<std::size_t>(kTies));
  // Every slot came back, the cancelled ones at the cancel: a second round
  // of the same size takes no new slot.
  for (int i = 0; i < kTies; ++i) sim.schedule_at(20, [&ran] { ++ran; });
  EXPECT_EQ(sim.event_slots(), static_cast<std::size_t>(kTies));
  sim.run();
  EXPECT_EQ(ran, kTies / 2 + kTies);
}

TEST(EventSlots, StaleHandleDoesNotCancelTheNewerEventInItsSlot) {
  Simulator sim(1);
  int ran = 0;
  // A cancelled event's slot goes to the next schedule.
  const auto cancelled = sim.schedule_at(10, [&ran] { ran += 100; });
  sim.cancel(cancelled);
  const auto reuser = sim.schedule_at(10, [&ran] { ++ran; });
  ASSERT_EQ(reuser.slot, cancelled.slot);
  ASSERT_NE(reuser.id, cancelled.id);
  sim.cancel(cancelled);
  EXPECT_EQ(sim.pending_events(), 1u);
  // So does an executed event's.
  sim.run();
  EXPECT_EQ(ran, 1);
  const auto next = sim.schedule_at(20, [&ran] { ++ran; });
  ASSERT_EQ(next.slot, reuser.slot);
  sim.cancel(reuser);
  sim.cancel(cancelled);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(EventSlots, CancelDestroysTheCapturesAtOnce) {
  Simulator sim(1);
  std::weak_ptr<int> watch;
  EventHandle handle;
  {
    auto probe = std::make_shared<int>(1);
    watch = probe;
    handle = sim.schedule_at(500'000, [probe] { (void)probe; });
  }
  sim.schedule_at(10, [] {});
  EXPECT_FALSE(watch.expired());
  sim.cancel(handle);
  EXPECT_TRUE(watch.expired());  // not when the dead key surfaces at 500 ms
  EXPECT_EQ(sim.pending_events(), 1u);
  // A capture whose destructor schedules: the cancelled slot is already
  // free, so the new event may take it.
  struct ScheduleOnDestroy {
    Simulator* sim;
    int* ran;
    ScheduleOnDestroy(Simulator* s, int* r) : sim(s), ran(r) {}
    ScheduleOnDestroy(ScheduleOnDestroy&& o) noexcept : sim(std::exchange(o.sim, nullptr)), ran(o.ran) {}
    ~ScheduleOnDestroy() {
      if (sim != nullptr) sim->schedule_at(20, [r = ran] { ++*r; });
    }
    void operator()() const {}
  };
  int ran = 0;
  const auto doomed = sim.schedule_at(30, ScheduleOnDestroy(&sim, &ran));
  sim.cancel(doomed);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.events_dispatched(), 2u);
}

TEST(EventSlots, CrashedOwnersEventStillDispatchesAndCounts) {
  Simulator sim(1);
  auto& node = sim.spawn<Recorder>();
  bool ran = false;
  sim.schedule_at(10, [&ran] { ran = true; }, node.id());
  std::weak_ptr<int> watch;
  {
    auto probe = std::make_shared<int>(1);
    watch = probe;
    sim.schedule_at(10, [probe] { (void)probe; }, node.id());
  }
  sim.crash(node.id());
  EXPECT_FALSE(watch.expired());  // the queued handler owns its captures
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_dispatched(), 2u);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(watch.expired());  // the silent handler was still destroyed
  // Both slots went back to the free list.
  sim.schedule_at(20, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.event_slots(), 2u);
}

TEST(NetworkAccounting, PerTypeCountEqualsAHandBuiltMap) {
  Simulator sim(1, quiet());
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  const auto pong = [&](NodeId to) { a.send(to, std::make_shared<Pong>()); };
  pong(b.id());
  a.send_ping(b.id(), 1, "x");
  pong(a.id());  // self-send
  sim.net().set_partition([](NodeId, NodeId) { return true; });
  pong(b.id());  // dropped, still counted
  sim.net().set_partition(nullptr);
  a.send_ping(b.id(), 2, "yy");
  sim.run();

  const std::map<std::string_view, std::int64_t> want = {{"test.Ping", 2}, {"test.Pong", 3}};
  const auto counts = sim.net().per_type_count();
  EXPECT_EQ(counts, want);
  const std::vector<std::string_view> names = {"test.Ping", "test.Pong"};
  std::vector<std::string_view> got_names;
  for (const auto& [name, n] : counts) got_names.push_back(name);
  EXPECT_EQ(got_names, names);

  const auto bytes = sim.net().per_type_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes.begin()->first, "test.Ping");
  EXPECT_EQ(bytes.at("test.Ping") + bytes.at("test.Pong"), sim.net().bytes_sent());
  EXPECT_EQ(sim.net().messages_excluding("test.Ping"), sim.net().messages_sent() - 2);
  EXPECT_EQ(sim.net().bytes_excluding("test.Pong"), bytes.at("test.Ping"));
  EXPECT_EQ(sim.net().messages_excluding("test.None"), sim.net().messages_sent());
}

TEST(NetworkAccounting, InflightMaxLinkFollowsAHigherNodeThatFirstSendsMidRun) {
  Simulator sim(1, quiet());
  std::vector<Recorder*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<Recorder>());
  std::vector<std::pair<std::int64_t, std::int64_t>> probes;  // (max link, total)
  const auto probe_at = [&](Time t) {
    sim.schedule_at(t, [&] {
      probes.emplace_back(sim.net().inflight_max_link(), sim.net().inflight_total());
    });
  };
  nodes[0]->send_ping(1, 1);  // A: 0 -> 1, arrives at 100
  probe_at(5);
  // Node 3 sends for the first time: the link table grows past node 1.
  sim.schedule_at(10, [&] {
    for (int i = 0; i < 3; ++i) nodes[3]->send_ping(2, 10 + i);  // arrive at 110
  });
  probe_at(15);
  sim.schedule_at(20, [&] { nodes[0]->send_ping(1, 2); });  // B: arrives at 120
  probe_at(25);
  probe_at(105);
  probe_at(115);
  probe_at(125);
  sim.run();
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {1, 1}, {3, 4}, {3, 5}, {3, 4}, {1, 1}, {0, 0}};
  EXPECT_EQ(probes, want);
}

}  // namespace
}  // namespace repli::sim

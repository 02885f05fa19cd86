#include "sim/simulator.hh"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/process.hh"
#include "tests/sim/sim_test_util.hh"
#include "util/assert.hh"

namespace repli::sim {
namespace {

using testing::Ping;
using testing::Recorder;

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelledEventsDoNotRun) {
  Simulator sim(1);
  bool ran = false;
  const auto id = sim.schedule_at(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, NestedSchedulingFromEvent) {
  Simulator sim(1);
  std::vector<Time> times;
  sim.schedule_at(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim(1);
  sim.schedule_at(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), util::InvariantViolation);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim(1);
  int ran = 0;
  sim.schedule_at(100, [&] { ++ran; });
  sim.schedule_at(300, [&] { ++ran; });
  sim.run_until(200);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 200);  // horizon reached even though an event is pending
  sim.run_until(400);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 400);
}

// --- run_until_quiet ------------------------------------------------------

/// A background ticker re-arming every `period`, like a failure detector.
struct Ticker {
  Simulator& sim;
  Time period;
  int ticks = 0;
  void arm() {
    sim.schedule_after(period, [this] {
      ++ticks;
      arm();
    }, Simulator::kNoOwner, EventClass::Background);
  }
};

TEST(Simulator, RunUntilQuietStopsQuietWindowAfterLastForegroundDispatch) {
  Simulator sim(1);
  Ticker ticker{sim, 10};
  ticker.arm();
  bool fg_ran = false;
  sim.schedule_at(1'000, [&] { fg_ran = true; });
  sim.run_until_quiet(1'000'000, 500);
  EXPECT_TRUE(fg_ran);
  // Stops at the first background event at or past 1000 + 500, not at the
  // horizon, and the clock stays there.
  EXPECT_GE(sim.now(), 1'500);
  EXPECT_LT(sim.now(), 1'510);
  EXPECT_EQ(sim.pending_foreground(), 0u);
  EXPECT_GT(sim.pending_events(), 0u);  // the ticker is still armed
}

TEST(Simulator, RunUntilQuietKeepsRunningForAFarForegroundTimer) {
  Simulator sim(1);
  Ticker ticker{sim, 10};
  ticker.arm();
  bool fired = false;
  sim.schedule_at(200'000, [&] { fired = true; });  // far past any quiet window
  sim.run_until_quiet(1'000'000, 500);
  EXPECT_TRUE(fired) << "a pending foreground timer must keep the run going";
  EXPECT_GE(sim.now(), 200'500);
  EXPECT_LT(sim.now(), 200'510);
}

TEST(Simulator, RunUntilQuietCancelledForegroundTimerDoesNotHoldTheRun) {
  Simulator sim(1);
  Ticker ticker{sim, 10};
  ticker.arm();
  const auto id = sim.schedule_at(200'000, [] {});
  sim.cancel(id);  // counted out at once, not when its heap entry surfaces
  EXPECT_EQ(sim.pending_foreground(), 0u);
  sim.run_until_quiet(1'000'000, 500);
  EXPECT_LT(sim.now(), 1'000);
}

TEST(Simulator, RunUntilQuietWindowOpensNoEarlierThanTheCall) {
  // The caller's own action just before the call (a crash, a heal) gets a
  // full quiet window even when the last foreground event is long past.
  Simulator sim(1);
  Ticker ticker{sim, 10};
  ticker.arm();
  sim.schedule_at(100, [] {});
  sim.run_until(50'000);
  sim.run_until_quiet(1'000'000, 500);
  EXPECT_GE(sim.now(), 50'500);
  EXPECT_LT(sim.now(), 50'510);
}

TEST(Simulator, RunUntilAfterRunUntilQuietContinuesWithoutRewind) {
  Simulator sim(1);
  Ticker ticker{sim, 10};
  ticker.arm();
  sim.schedule_at(100, [] {});
  sim.run_until_quiet(1'000'000, 500);
  const Time stopped = sim.now();
  const int ticks_at_stop = ticker.ticks;
  ASSERT_LT(stopped, 1'000'000);
  std::vector<Time> seen;
  sim.schedule_after(20, [&] { seen.push_back(sim.now()); });
  sim.run_until(stopped + 1'000);
  EXPECT_EQ(seen, (std::vector<Time>{stopped + 20}));
  EXPECT_EQ(sim.now(), stopped + 1'000);
  EXPECT_EQ(ticker.ticks - ticks_at_stop, 100);  // the background ticker resumed in step
}

TEST(Simulator, RunUntilQuietWithoutQuiescenceBehavesLikeRunUntil) {
  // A foreground event every 100 us never lets the run go quiet: the call
  // must run to the horizon and advance the clock to it, like run_until.
  Simulator sim(1);
  std::function<void()> loop = [&] { sim.schedule_after(100, loop); };
  sim.schedule_at(0, loop);
  sim.run_until_quiet(10'050, 500);
  EXPECT_EQ(sim.now(), 10'050);
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  Simulator sim(1);
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { sim.schedule_after(1, loop); };
  sim.schedule_at(0, loop);
  EXPECT_THROW(sim.run_until(1'000'000'000, 1000), util::InvariantViolation);
}

TEST(Simulator, SpawnAssignsDenseIds) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(b.id(), 1);
  EXPECT_EQ(sim.process_count(), 2u);
  EXPECT_EQ(&sim.process(0), &a);
}

TEST(Simulator, CrashStopsTimersAndDeliveries) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  bool timer_fired = false;
  a.set_timer(100, [&] { timer_fired = true; });
  b.send_ping(a.id(), 1);
  sim.schedule_at(10, [&] { sim.crash(a.id()); });
  sim.run();
  EXPECT_TRUE(sim.crashed(a.id()));
  EXPECT_FALSE(timer_fired);
  EXPECT_TRUE(a.deliveries.empty());
}

TEST(Simulator, CrashedProcessCannotSend) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  sim.crash(a.id());
  a.send_ping(b.id(), 1);
  sim.run();
  EXPECT_TRUE(b.deliveries.empty());
}

TEST(Simulator, MessagesInFlightSurviveSenderCrash) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  auto& b = sim.spawn<Recorder>();
  a.send_ping(b.id(), 7);
  sim.schedule_at(1, [&] { sim.crash(a.id()); });  // crash before delivery latency elapses
  sim.run();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].seq, 7);
}

TEST(Simulator, CpuExecuteSerializesWork) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  std::vector<Time> done_at;
  sim.schedule_at(0, [&] {
    a.cpu_execute(100, [&] { done_at.push_back(sim.now()); });
    a.cpu_execute(50, [&] { done_at.push_back(sim.now()); });
  });
  sim.run();
  // Second job queues behind the first on the single core.
  EXPECT_EQ(done_at, (std::vector<Time>{100, 150}));
}

TEST(Simulator, CpuExecuteAfterIdlePeriodStartsFresh) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  std::vector<Time> done_at;
  sim.schedule_at(0, [&] { a.cpu_execute(10, [&] { done_at.push_back(sim.now()); }); });
  sim.schedule_at(1000, [&] { a.cpu_execute(10, [&] { done_at.push_back(sim.now()); }); });
  sim.run();
  EXPECT_EQ(done_at, (std::vector<Time>{10, 1010}));
}

TEST(Simulator, TimerCancellation) {
  Simulator sim(1);
  auto& a = sim.spawn<Recorder>();
  bool fired = false;
  const auto t = a.set_timer(100, [&] { fired = true; });
  a.cancel_timer(t);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DeterminismSameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.drop_probability = 0.1;
    Simulator sim(seed, cfg);
    auto& a = sim.spawn<Recorder>();
    auto& b = sim.spawn<Recorder>();
    for (int i = 0; i < 200; ++i) {
      sim.schedule_at(i * 10, [&a, &b, i] {
        a.send_ping(b.id(), i);
        b.send_ping(a.id(), 1000 + i);
      });
    }
    sim.run();
    std::vector<std::tuple<NodeId, std::int64_t, Time>> trace;
    for (const auto& d : a.deliveries) trace.emplace_back(d.from, d.seq, d.at);
    for (const auto& d : b.deliveries) trace.emplace_back(d.from, d.seq, d.at);
    return trace;
  };
  EXPECT_EQ(run(12345), run(12345));
  EXPECT_NE(run(12345), run(54321));
}

}  // namespace
}  // namespace repli::sim

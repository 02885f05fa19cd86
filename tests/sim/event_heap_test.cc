#include "sim/event_heap.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <vector>

#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/rng.hh"

namespace repli::sim {
namespace {

struct Item {
  Time time = 0;
  std::uint64_t id = 0;
};

struct ItemAfter {
  // std::priority_queue is a max-heap: "after" == reverse of the heap's
  // (time asc, id asc) order.
  bool operator()(const Item& a, const Item& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

using RefQueue = std::priority_queue<Item, std::vector<Item>, ItemAfter>;

TEST(EventHeap, PopsInTimeThenIdOrder) {
  EventHeap<Item> heap;
  heap.push({30, 1});
  heap.push({10, 2});
  heap.push({10, 3});
  heap.push({20, 4});
  std::vector<std::uint64_t> ids;
  while (!heap.empty()) ids.push_back(heap.pop_min().id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 4, 1}));
}

TEST(EventHeap, PopOnEmptyThrows) {
  EventHeap<Item> heap;
  EXPECT_THROW(heap.pop_min(), util::InvariantViolation);
}

// The determinism contract: (time, id) is a unique total order, so the
// 4-ary heap must pop in exactly the order std::priority_queue (the
// implementation it replaced) pops, under any interleaving of pushes and
// pops. Clustered times force heavy tie-breaking on id.
TEST(EventHeap, FuzzMatchesPriorityQueue) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    util::Rng rng(seed);
    EventHeap<Item> heap;
    RefQueue ref;
    std::uint64_t next_id = 1;
    for (int op = 0; op < 20000; ++op) {
      if (ref.empty() || rng.uniform01() < 0.6) {
        const Item item{rng.uniform(0, 50), next_id++};
        heap.push(item);
        ref.push(item);
      } else {
        const Item expect = ref.top();
        ref.pop();
        const Item got = heap.pop_min();
        ASSERT_EQ(got.time, expect.time) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.id, expect.id) << "seed " << seed << " op " << op;
      }
    }
    while (!ref.empty()) {
      const Item expect = ref.top();
      ref.pop();
      const Item got = heap.pop_min();
      ASSERT_EQ(got.id, expect.id);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventHeap, CompactDropsDeadAndKeepsOrder) {
  util::Rng rng(99);
  EventHeap<Item> heap;
  std::vector<Item> live;
  for (std::uint64_t id = 1; id <= 500; ++id) {
    const Item item{rng.uniform(0, 100), id};
    heap.push(item);
    if (id % 3 != 0) live.push_back(item);  // every third id will die
  }
  const std::size_t removed = heap.compact([](const Item& it) { return it.id % 3 == 0; });
  EXPECT_EQ(removed, 500 / 3);
  EXPECT_EQ(heap.size(), live.size());
  std::sort(live.begin(), live.end(), [](const Item& a, const Item& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  });
  for (const Item& expect : live) {
    const Item got = heap.pop_min();
    ASSERT_EQ(got.time, expect.time);
    ASSERT_EQ(got.id, expect.id);
  }
}

// --- Simulator event-lifecycle regressions -------------------------------

// Regression: cancelling an id that already executed (a stale timer handle)
// must be a no-op. The PR-6 implementation recorded every such cancel in a
// set forever — a leak, and pending_events() drifted.
TEST(SimulatorLifecycle, StaleCancelIsNoOp) {
  Simulator sim(1);
  int runs = 0;
  const auto id = sim.schedule_at(10, [&] { ++runs; });
  sim.run();
  EXPECT_EQ(runs, 1);
  for (int i = 0; i < 100; ++i) sim.cancel(id);  // executed: no-op
  sim.cancel(Simulator::kNoEvent);               // null handle: no-op
  sim.cancel({123456, 0});                       // never issued: no-op
  sim.cancel({id.id, 99});                       // slot never allocated: no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  // The stale cancels must not poison later events.
  sim.schedule_at(20, [&] { ++runs; });
  sim.run();
  EXPECT_EQ(runs, 2);
}

TEST(SimulatorLifecycle, DoubleCancelIsNoOp) {
  Simulator sim(1);
  bool ran = false;
  const auto id = sim.schedule_at(10, [&] { ran = true; });
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
}

// Regression: pending_events() used to report the raw queue size, counting
// cancelled-but-unpopped entries — the queue.events gauge read too high.
TEST(SimulatorLifecycle, PendingEventsCountsLiveOnly) {
  Simulator sim(1);
  std::vector<EventHandle> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(sim.schedule_at(10 + i, [] {}));
  EXPECT_EQ(sim.pending_events(), 10u);
  for (int i = 0; i < 4; ++i) sim.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(sim.pending_events(), 6u);
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Heavy cancel churn crosses the bulk-compaction threshold; survivors must
// still run, in order, exactly once.
TEST(SimulatorLifecycle, CancelChurnStillRunsSurvivorsInOrder) {
  Simulator sim(1);
  util::Rng rng(7);
  std::vector<Time> ran;
  std::vector<EventHandle> ids;
  std::vector<Time> expect;
  for (int i = 0; i < 2000; ++i) {
    const Time t = rng.uniform(1, 1000);
    ids.push_back(sim.schedule_at(t, [&ran, t] { ran.push_back(t); }));
    expect.push_back(t);
  }
  // Cancel ~90% (well past the compaction floor).
  std::vector<Time> survivors;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) {
      sim.cancel(ids[i]);
    } else {
      survivors.push_back(expect[i]);
    }
  }
  EXPECT_EQ(sim.pending_events(), survivors.size());
  EXPECT_EQ(sim.run(), survivors.size());
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(ran, survivors);  // same-time survivors were scheduled in id order
}

// run_until() horizon handling when the queue minimum is a dead entry: the
// first live event past the horizon must be preserved for a later run.
TEST(SimulatorLifecycle, RunUntilRequeuesLiveEventPastHorizonBehindDeadMin) {
  Simulator sim(1);
  std::vector<Time> ran;
  const auto early = sim.schedule_at(100, [&] { ran.push_back(100); });
  sim.schedule_at(200, [&] { ran.push_back(200); });
  sim.cancel(early);
  EXPECT_EQ(sim.run_until(150), 0u);  // dead min at 100, live 200 is past t_end
  EXPECT_EQ(sim.now(), 150);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(ran, (std::vector<Time>{200}));
  EXPECT_EQ(sim.now(), 200);
}

// pending_events() and pending_foreground() must equal a reference set's
// counts under any interleaving of schedules, cancels, stale cancels
// (handles whose event ran or was cancelled, and whose slot a newer event
// may hold) and partial runs; every handler runs once, on time, while live.
TEST(SimulatorLifecycle, PendingCountsMatchReferenceSetUnderFuzz) {
  Simulator sim(1);
  util::Rng rng(2024);
  struct Live {
    EventHandle handle;
    EventClass cls = EventClass::Foreground;
    Time time = 0;
  };
  std::map<int, Live> live;  // the reference, by schedule serial
  std::vector<EventHandle> stale;
  int bad_runs = 0;
  const auto foreground = [&] {
    return static_cast<std::size_t>(std::count_if(live.begin(), live.end(), [](const auto& e) {
      return e.second.cls == EventClass::Foreground;
    }));
  };
  for (int step = 0; step < 50000; ++step) {
    const double op = rng.uniform01();
    if (live.empty() || op < 0.45) {
      const auto cls = rng.bernoulli(0.4) ? EventClass::Background : EventClass::Foreground;
      const Time t = sim.now() + rng.uniform(0, 500);
      const auto handle = sim.schedule_at(t, [&, step] {
        const auto it = live.find(step);
        if (it == live.end() || it->second.time != sim.now()) {
          ++bad_runs;
          return;
        }
        stale.push_back(it->second.handle);
        live.erase(it);
      }, Simulator::kNoOwner, cls);
      live.emplace(step, Live{handle, cls, t});
    } else if (op < 0.7) {
      // Cancel a random live event: old ones (like a long timer) as well as fresh.
      auto it = live.lower_bound(static_cast<int>(rng.uniform(0, step)));
      if (it == live.end()) it = live.begin();
      sim.cancel(it->second.handle);
      stale.push_back(it->second.handle);
      live.erase(it);
    } else if (op < 0.85) {
      if (!stale.empty()) {
        sim.cancel(stale[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(stale.size()) - 1))]);
      }
    } else {
      sim.run_until(sim.now() + rng.uniform(0, 100));
      for (const auto& [serial, e] : live) {
        ASSERT_GT(e.time, sim.now()) << "step " << step;
      }
    }
    ASSERT_EQ(sim.pending_events(), live.size()) << "step " << step;
    if (step % 16 == 0) {
      ASSERT_EQ(sim.pending_foreground(), foreground()) << "step " << step;
    }
  }
  sim.run();
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.pending_foreground(), 0u);
  EXPECT_EQ(bad_runs, 0);
}

// run() and run_until() share one checked dispatch path: time never moves
// backwards across the boundary between the two, with cancels interleaved.
TEST(SimulatorLifecycle, RunAfterRunUntilKeepsTimeMonotone) {
  Simulator sim(1);
  util::Rng rng(21);
  std::vector<Time> ran;
  std::vector<EventHandle> ids;
  for (int i = 0; i < 200; ++i) {
    const Time t = rng.uniform(1, 400);
    ids.push_back(sim.schedule_at(t, [&ran, &sim] { ran.push_back(sim.now()); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
  sim.run_until(200);
  EXPECT_GE(sim.now(), 200);
  sim.run();
  for (std::size_t i = 1; i < ran.size(); ++i) ASSERT_LE(ran[i - 1], ran[i]);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace repli::sim

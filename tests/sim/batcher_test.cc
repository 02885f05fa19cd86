// sim::Batcher: a batch flushes at `max` items or `window` after its first
// item; a window timer left over from an earlier flush does nothing; at
// max <= 1 every item flushes alone and no timer is armed.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <vector>

#include "sim/batcher.hh"
#include "sim/simulator.hh"
#include "tests/sim/sim_test_util.hh"

namespace repli::sim {
namespace {

using testing::Recorder;

/// One flush: when it happened and what it carried.
struct Flush {
  Time at;
  std::vector<int> items;
  bool operator==(const Flush&) const = default;
};

void PrintTo(const Flush& f, std::ostream* os) {
  *os << "{t=" << f.at << " " << ::testing::PrintToString(f.items) << "}";
}

/// A batcher whose window timer is a simulator event, recording its flushes.
struct Recorded {
  Recorded(Simulator& sim, BatchPolicy policy)
      : batcher(policy, sim, [this, &sim](std::vector<int> items) {
          flushes.push_back(Flush{sim.now(), std::move(items)});
        }) {}
  std::vector<Flush> flushes;
  Batcher<int, Simulator> batcher;
};

TEST(Batcher, FlushesAtMaxItems) {
  Simulator sim(1);
  Recorded r(sim, BatchPolicy{3, 1000});
  for (int i = 0; i < 7; ++i) r.batcher.add(i);
  EXPECT_EQ(r.flushes, (std::vector<Flush>{{0, {0, 1, 2}}, {0, {3, 4, 5}}}));
  sim.run();
  EXPECT_EQ(r.flushes, (std::vector<Flush>{{0, {0, 1, 2}}, {0, {3, 4, 5}}, {1000, {6}}}));
}

TEST(Batcher, WindowIsTimedFromTheFirstItem) {
  Simulator sim(1);
  Recorded r(sim, BatchPolicy{8, 100});
  sim.schedule_at(10, [&] { r.batcher.add(1); });
  sim.schedule_at(60, [&] { r.batcher.add(2); });
  sim.schedule_at(90, [&] { r.batcher.add(3); });
  sim.run();
  EXPECT_EQ(r.flushes, (std::vector<Flush>{{110, {1, 2, 3}}}));
}

TEST(Batcher, StaleWindowTimerDoesNotFlushTheNextLoneItemEarly) {
  Simulator sim(1);
  Recorded r(sim, BatchPolicy{2, 100});
  // t=0: a full batch flushes by size; the window timer its first item
  // armed (due at t=100) is now stale.
  r.batcher.add(1);
  r.batcher.add(2);
  // t=50: a lone item starts a new batch, due at t=150 — not at t=100.
  sim.schedule_at(50, [&] { r.batcher.add(3); });
  sim.run();
  EXPECT_EQ(r.flushes, (std::vector<Flush>{{0, {1, 2}}, {150, {3}}}));
}

TEST(Batcher, PerKeyBuffersAreIndependent) {
  Simulator sim(1);
  auto& host = sim.spawn<Recorder>();
  std::map<int, std::vector<Flush>> flushes;
  std::map<int, Batcher<int>> batchers;
  auto add = [&](int key, int item) {
    batchers
        .try_emplace(key, BatchPolicy{2, 100}, host,
                     [&, key](std::vector<int> items) {
                       flushes[key].push_back(Flush{sim.now(), std::move(items)});
                     })
        .first->second.add(item);
  };
  add(1, 10);  // key 1: window due at t=100
  sim.schedule_at(30, [&] { add(2, 20); });   // key 2: window due at t=130
  sim.schedule_at(50, [&] { add(2, 21); });   // key 2 fills; key 1 keeps waiting
  sim.schedule_at(120, [&] { add(2, 22); });  // key 2 again: due at t=220
  sim.run();
  EXPECT_EQ(flushes[1], (std::vector<Flush>{{100, {10}}}));
  EXPECT_EQ(flushes[2], (std::vector<Flush>{{50, {20, 21}}, {220, {22}}}));
}

TEST(Batcher, MaxOfOneFlushesAtOnceWithoutATimer) {
  for (const int max : {1, 0}) {
    Simulator sim(1);
    Recorded r(sim, BatchPolicy{max, 100});
    EXPECT_FALSE(r.batcher.policy().batching());
    r.batcher.add(1);
    r.batcher.add(2);
    EXPECT_EQ(r.flushes, (std::vector<Flush>{{0, {1}}, {0, {2}}}));
    EXPECT_EQ(sim.pending_events(), 0u) << "max=" << max;
  }
}

TEST(Batcher, ProcessTimerIsSkippedOnceTheProcessCrashed) {
  Simulator sim(1);
  auto& host = sim.spawn<Recorder>();
  std::vector<Flush> flushes;
  Batcher<int> batcher(BatchPolicy{4, 100}, host, [&](std::vector<int> items) {
    flushes.push_back(Flush{sim.now(), std::move(items)});
  });
  batcher.add(1);
  sim.schedule_at(50, [&] { sim.crash(host.id()); });
  sim.run();
  EXPECT_TRUE(flushes.empty());
}

}  // namespace
}  // namespace repli::sim

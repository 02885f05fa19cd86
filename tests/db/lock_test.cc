// LockManager unit tests. The lock manager always runs wait-die, so a test
// that needs a request to wait gives the waiter a smaller priority (older)
// than every incompatible holder.
#include "db/lock.hh"

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hh"

namespace repli::db {
namespace {

// Minimal host process: the lock manager only needs its timers.
class Host : public sim::Process {
 public:
  Host(sim::NodeId id, sim::Simulator& sim) : Process(id, sim, "lock-host") {}
  void on_message(sim::NodeId, wire::MessagePtr) override {}
};

struct Fixture {
  Fixture() : sim(1), host(sim.spawn<Host>()), lm(host) {}
  sim::Simulator sim;
  Host& host;
  LockManager lm;
};

TEST(LockManager, SharedLocksCoexist) {
  Fixture f;
  int grants = 0;
  f.lm.acquire("t1", 1, "k", LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
  f.lm.acquire("t2", 2, "k", LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
  EXPECT_EQ(grants, 2);
  EXPECT_TRUE(f.lm.holds("t1", "k", LockMode::Shared));
  EXPECT_TRUE(f.lm.holds("t2", "k", LockMode::Shared));
}

TEST(LockManager, ExclusiveBlocksOthers) {
  Fixture f;
  bool t2_granted = false;
  f.lm.acquire("t1", 2, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 1, "k", LockMode::Shared, [&] { t2_granted = true; }, [] { FAIL(); });
  EXPECT_FALSE(t2_granted);
  EXPECT_EQ(f.lm.waiting_count(), 1u);
  f.lm.release_all("t1");
  EXPECT_TRUE(t2_granted);
  EXPECT_TRUE(f.lm.holds("t2", "k", LockMode::Shared));
}

TEST(LockManager, SharedBlocksExclusive) {
  Fixture f;
  bool x_granted = false;
  f.lm.acquire("t1", 2, "k", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 1, "k", LockMode::Exclusive, [&] { x_granted = true; }, [] { FAIL(); });
  EXPECT_FALSE(x_granted);
  f.lm.release_all("t1");
  EXPECT_TRUE(x_granted);
}

TEST(LockManager, ReentrantAcquireIsImmediate) {
  Fixture f;
  int grants = 0;
  f.lm.acquire("t1", 1, "k", LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
  f.lm.acquire("t1", 1, "k", LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
  f.lm.acquire("t1", 1, "k", LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
  EXPECT_EQ(grants, 3);
}

TEST(LockManager, UpgradeWhenSoleHolder) {
  Fixture f;
  bool upgraded = false;
  f.lm.acquire("t1", 1, "k", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t1", 1, "k", LockMode::Exclusive, [&] { upgraded = true; }, [] { FAIL(); });
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(f.lm.holds("t1", "k", LockMode::Exclusive));
}

TEST(LockManager, UpgradeWaitsForOtherReaders) {
  Fixture f;
  bool upgraded = false;
  f.lm.acquire("t1", 1, "k", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 2, "k", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t1", 1, "k", LockMode::Exclusive, [&] { upgraded = true; }, [] { FAIL(); });
  EXPECT_FALSE(upgraded);
  f.lm.release_all("t2");
  EXPECT_TRUE(upgraded);
}

TEST(LockManager, FifoFairnessNoStarvation) {
  Fixture f;
  std::vector<std::string> grant_order;
  f.lm.acquire("t1", 3, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 1, "k", LockMode::Exclusive, [&] { grant_order.push_back("t2"); }, [] { FAIL(); });
  f.lm.acquire("t3", 2, "k", LockMode::Shared, [&] { grant_order.push_back("t3"); }, [] { FAIL(); });
  // A late shared request must not jump over the queued exclusive one.
  f.lm.release_all("t1");
  ASSERT_EQ(grant_order.size(), 1u);
  EXPECT_EQ(grant_order[0], "t2");
  f.lm.release_all("t2");
  EXPECT_EQ(grant_order, (std::vector<std::string>{"t2", "t3"}));
}

// Under wait-die a cycle can still form through a shared request queued
// (FIFO) behind an older exclusive waiter: that shared waiter waits for the
// shared holders ahead of it whatever their age (see db/lock.hh).
TEST(LockManager, DeadlockDetectedYoungestAborts) {
  Fixture f;
  bool t4_aborted = false;
  bool t2_granted_b = false;
  f.lm.acquire("t2", 2, "a", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t4", 4, "b", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t1", 1, "a", LockMode::Exclusive, [] {}, [] { FAIL(); });  // t1 waits for t2
  // t2 waits for b (held by t4); no cycle yet.
  f.lm.acquire("t2", 2, "b", LockMode::Exclusive, [&] { t2_granted_b = true; },
               [] { FAIL() << "older txn was chosen as victim"; });
  // t4's shared request queues behind t1's exclusive one, so t4 waits for
  // t2: cycle t2 -> t4 -> t2. t4 (younger) dies.
  f.lm.acquire("t4", 4, "a", LockMode::Shared, [] { FAIL(); }, [&] { t4_aborted = true; });
  EXPECT_TRUE(t4_aborted);
  EXPECT_EQ(f.sim.metrics().counter_value("db.lock.deadlocks"), 1);
  // The abort callback is expected to release; simulate that.
  f.lm.release_all("t4");
  EXPECT_TRUE(t2_granted_b);
}

TEST(LockManager, ThreeWayDeadlockResolved) {
  Fixture f;
  int aborts = 0;
  auto on_abort = [&] { ++aborts; };
  f.lm.acquire("t2", 2, "a", LockMode::Shared, [] {}, [] {});
  f.lm.acquire("t3", 3, "c", LockMode::Exclusive, [] {}, [] {});
  f.lm.acquire("t4", 4, "b", LockMode::Exclusive, [] {}, [] {});
  f.lm.acquire("t1", 1, "a", LockMode::Exclusive, [] {}, on_abort);  // waits for t2
  f.lm.acquire("t4", 4, "a", LockMode::Shared, [] {}, on_abort);     // queued behind t1
  f.lm.acquire("t3", 3, "b", LockMode::Exclusive, [] {}, on_abort);  // waits for t4
  f.lm.acquire("t2", 2, "c", LockMode::Exclusive, [] {}, on_abort);  // closes the cycle
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(f.sim.metrics().counter_value("db.lock.deadlocks"), 1);
}

// Detection re-enters itself: the first victim's abort callback issues an
// acquire that closes a second, unrelated cycle, so detect_deadlock runs
// again inside abort_waiter. Both cycles use the FIFO-queue shape above.
TEST(LockManager, AbortCallbackClosingSecondCycleIsDetected) {
  Fixture f;
  std::vector<std::string> victims;
  auto victim = [&](std::string txn) { return [&victims, txn] { victims.push_back(txn); }; };
  // Second cycle, set up but not yet closed: s1 waits for s2 on p, s3 for
  // s4 on q, s2 for s3 on r.
  f.lm.acquire("s2", 12, "p", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("s3", 13, "r", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("s4", 14, "q", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("s1", 11, "p", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("s3", 13, "q", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("s2", 12, "r", LockMode::Exclusive, [] {}, [] { FAIL(); });
  // First cycle: t2 -> t4 -> t2, closed by t4, whose abort callback queues
  // s4 for S on p behind s1, closing s4 -> s2 -> s3 -> s4.
  f.lm.acquire("t2", 2, "a", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("t4", 4, "b", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t1", 1, "a", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 2, "b", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t4", 4, "a", LockMode::Shared, [] { FAIL(); }, [&] {
    victims.push_back("t4");
    f.lm.acquire("s4", 14, "p", LockMode::Shared, [] { FAIL(); }, victim("s4"));
  });
  EXPECT_EQ(victims, (std::vector<std::string>{"t4", "s4"}));
  EXPECT_EQ(f.sim.metrics().counter_value("db.lock.deadlocks"), 2);
  const auto deadlocks = f.sim.tracer().named("db/lock.deadlock");
  ASSERT_EQ(deadlocks.size(), 2u);
  EXPECT_EQ(deadlocks[0]->request, "t4");
  EXPECT_EQ(deadlocks[0]->attrs, (obs::Attrs{{"cycle_len", "2"}}));
  EXPECT_EQ(deadlocks[1]->request, "s4");
  EXPECT_EQ(deadlocks[1]->attrs, (obs::Attrs{{"cycle_len", "3"}}));
}

TEST(LockManager, WaitDieLeavesFifoQueueCycleToDetection) {
  // mid holds S on k and young holds X on j. oldest waits for X on k, young
  // queues for S on k behind it (no incompatible holder, so wait-die lets it
  // wait), and mid then requests X on j (young is younger: mid may wait).
  // Wait-die allowed every wait, yet mid -> young -> mid is a cycle; only
  // wait-for-graph detection breaks it before the wait timeout.
  Fixture f;
  bool young_aborted = false;
  bool mid_granted_j = false;
  f.lm.acquire("mid", 2, "k", LockMode::Shared, [] {}, [] { FAIL(); });
  f.lm.acquire("young", 3, "j", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("oldest", 1, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("young", 3, "k", LockMode::Shared, [] { FAIL(); }, [&] { young_aborted = true; });
  f.lm.acquire("mid", 2, "j", LockMode::Exclusive, [&] { mid_granted_j = true; },
               [] { FAIL() << "mid is older than the victim"; });
  EXPECT_TRUE(young_aborted) << "cycle left to the wait timeout";
  EXPECT_EQ(f.sim.now(), 0);
  const auto& metrics = f.sim.metrics();
  EXPECT_EQ(metrics.counter_value("db.lock.deadlocks"), 1);
  EXPECT_EQ(metrics.counter_value("db.lock.wait_die_aborts"), 0);
  f.lm.release_all("young");
  EXPECT_TRUE(mid_granted_j);
}

TEST(LockManager, WaitTimeoutBackstopFires) {
  Fixture f;
  bool aborted = false;
  f.lm.acquire("t1", 2, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 1, "k", LockMode::Exclusive, [] { FAIL(); }, [&] { aborted = true; });
  f.sim.run_until(kLockWaitTimeout - 1);
  EXPECT_FALSE(aborted);
  f.sim.run_until(kLockWaitTimeout);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(f.lm.waiting_count(), 0u);
}

TEST(LockManager, ReleaseAllCancelsPendingRequest) {
  Fixture f;
  f.lm.acquire("t1", 2, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  f.lm.acquire("t2", 1, "k", LockMode::Exclusive, [] { FAIL(); }, [] { FAIL(); });
  f.lm.release_all("t2");  // withdraw while waiting: neither callback fires
  EXPECT_EQ(f.lm.waiting_count(), 0u);
  f.lm.release_all("t1");
  EXPECT_FALSE(f.lm.holds("t1", "k", LockMode::Shared));
}

TEST(LockManager, IndependentKeysDoNotInteract) {
  Fixture f;
  int grants = 0;
  f.lm.acquire("t1", 1, "a", LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
  f.lm.acquire("t2", 2, "b", LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
  EXPECT_EQ(grants, 2);
}

TEST(LockManager, QueuedRequestsGrantInBatchWhenCompatible) {
  Fixture f;
  int shared_grants = 0;
  f.lm.acquire("t1", 10, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });  // youngest
  for (int i = 2; i <= 5; ++i) {
    f.lm.acquire("t" + std::to_string(i), i, "k", LockMode::Shared,
                 [&] { ++shared_grants; }, [] { FAIL(); });
  }
  EXPECT_EQ(shared_grants, 0);
  f.lm.release_all("t1");
  EXPECT_EQ(shared_grants, 4);  // all compatible readers granted together
}

TEST(LockManager, WaitDieYoungerRequesterDiesImmediately) {
  Fixture f;
  auto& lm = f.lm;
  bool died = false;
  lm.acquire("old", 1, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  lm.acquire("young", 2, "k", LockMode::Exclusive, [] { FAIL(); }, [&] { died = true; });
  EXPECT_TRUE(died);
  EXPECT_EQ(f.sim.metrics().counter_value("db.lock.wait_die_aborts"), 1);
  EXPECT_EQ(lm.waiting_count(), 0u);
}

TEST(LockManager, WaitDieOlderRequesterWaits) {
  Fixture f;
  auto& lm = f.lm;
  bool granted = false;
  lm.acquire("young", 2, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  lm.acquire("old", 1, "k", LockMode::Exclusive, [&] { granted = true; }, [] { FAIL(); });
  EXPECT_FALSE(granted);
  EXPECT_EQ(lm.waiting_count(), 1u);
  lm.release_all("young");
  EXPECT_TRUE(granted);
}

TEST(LockManager, WaitDieSharedReadersUnaffected) {
  Fixture f;
  auto& lm = f.lm;
  int grants = 0;
  lm.acquire("old", 1, "k", LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
  lm.acquire("young", 2, "k", LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
  EXPECT_EQ(grants, 2) << "compatible modes never trigger wait-die";
}

TEST(LockManager, WaitDiePreventsCrossKeyDeadlock) {
  Fixture f;
  auto& lm = f.lm;
  bool young_died = false;
  lm.acquire("t1", 1, "a", LockMode::Exclusive, [] {}, [] { FAIL(); });
  lm.acquire("t2", 2, "b", LockMode::Exclusive, [] {}, [] { FAIL(); });
  lm.acquire("t1", 1, "b", LockMode::Exclusive, [] {}, [] { FAIL(); });  // old waits
  lm.acquire("t2", 2, "a", LockMode::Exclusive, [] { FAIL(); }, [&] { young_died = true; });
  EXPECT_TRUE(young_died) << "the would-be cycle edge dies instead of waiting";
  // After t2 releases, the old transaction gets b.
  lm.release_all("t2");
  EXPECT_TRUE(lm.holds("t1", "b", LockMode::Exclusive));
}

TEST(LockManager, WaitDiePriorityIsSticky) {
  // The priority recorded at first contact governs later interactions even
  // if a different priority is passed (retried transactions keep their age).
  Fixture f;
  auto& lm = f.lm;
  lm.acquire("t1", 5, "k", LockMode::Exclusive, [] {}, [] { FAIL(); });
  bool died = false;
  // t2 claims priority 1 now, but k's holder recorded 5; 1 < 5 so t2 waits.
  lm.acquire("t2", 1, "k", LockMode::Exclusive, [] {}, [&] { died = true; });
  EXPECT_FALSE(died);
  EXPECT_EQ(lm.waiting_count(), 1u);
}

// A transaction is tracked only while it holds or waits for a lock: after
// 10k distinct transactions — granted at once, granted after a wait, or
// released while still waiting — the manager keeps none of them, and
// every wait timeout was cancelled.
TEST(LockManager, ReleaseAllForgetsTheTransaction) {
  Fixture f;
  auto& lm = f.lm;
  int grants = 0;
  for (int i = 0; i < 10'000; i += 4) {
    const auto txn = [i](int k) { return "t" + std::to_string(i + k); };
    const std::string key = "k" + std::to_string(i % 32);
    lm.acquire(txn(0), 4, key, LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
    lm.acquire(txn(1), 3, key, LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
    lm.acquire(txn(2), 2, key, LockMode::Shared, [&] { ++grants; }, [] { FAIL(); });
    lm.acquire(txn(3), 1, key, LockMode::Exclusive, [&] { ++grants; }, [] { FAIL(); });
    EXPECT_EQ(lm.waiting_count(), 3u);
    EXPECT_EQ(lm.tracked_txns(), 4u);
    lm.release_all(txn(3));  // still waiting
    lm.release_all(txn(0));  // grants both readers
    lm.release_all(txn(1));
    lm.release_all(txn(2));
  }
  EXPECT_EQ(grants, 10'000 / 4 * 3);
  EXPECT_EQ(lm.waiting_count(), 0u);
  EXPECT_EQ(lm.tracked_txns(), 0u);
  EXPECT_EQ(f.sim.pending_events(), 0u);
  lm.release_all("t0");  // already forgotten: a no-op
  EXPECT_FALSE(lm.holds("t0", "k0", LockMode::Shared));
}

}  // namespace
}  // namespace repli::db

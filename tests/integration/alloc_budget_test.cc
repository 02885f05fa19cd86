// A steady-state heap-allocation budget for the busiest message path:
// active replication over sequencer ABCAST with 5 replicas, 4 closed-loop
// clients, 50% blind puts and 50% gets over 1024 keys (the shape of
// perfbench's abcast_stream). Bytes travel by reference from the link up
// to the technique: one shared buffer per fan-out, flat seq-indexed link
// and sequencer state, pooled messages held by the closures that outlive a
// delivery. A copy per destination, a node per pending message or a
// request copied into each CPU task would each push the count well past
// the budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "obs/profile.hh"
#include "util/rng.hh"

namespace repli::core {
namespace {

// Measured at 84 allocations per committed op (mostly the trace's retained
// spans and flows, the client and the history); 303 while the broadcast
// path still copied its bytes.
constexpr double kAllocsPerOpBudget = 120;

TEST(AllocBudget, AbcastStreamSteadyStateAllocationsPerCommittedOp) {
  ClusterConfig cfg;
  cfg.kind = TechniqueKind::Active;
  cfg.replicas = 5;
  cfg.clients = 4;
  cfg.seed = 7;
  Cluster cluster(cfg);
  auto& sim = cluster.sim();

  util::Rng rng(11);
  std::int64_t committed = 0;
  std::vector<int> issued(static_cast<std::size_t>(cfg.clients), 0);
  std::function<void(int)> issue = [&](int c) {
    const int i = issued[static_cast<std::size_t>(c)]++;
    const std::string key = "k" + std::to_string(rng.uniform(0, 1023));
    const db::Operation op =
        rng.uniform01() < 0.5
            ? op_put(key, "v" + std::to_string(c) + "-" + std::to_string(i))
            : op_get(key);
    cluster.submit_op(c, op, [&, c](const ClientReply& reply) {
      ASSERT_TRUE(reply.ok);
      ++committed;
      sim.schedule_after(static_cast<sim::Time>(rng.exponential(1000.0)), [&issue, c] { issue(c); });
    });
  };
  for (int c = 0; c < cfg.clients; ++c) issue(c);

  const auto run_ops = [&](std::int64_t ops) {
    const std::int64_t target = committed + ops;
    while (committed < target) sim.run_until(sim.now() + 10 * sim::kMsec);
  };
  run_ops(500);  // warm-up: pools, rings and tables reach their working size
  const std::int64_t ops0 = committed;
  const std::uint64_t allocs0 = obs::thread_alloc_count();
  run_ops(2000);
  const double per_op = static_cast<double>(obs::thread_alloc_count() - allocs0) /
                        static_cast<double>(committed - ops0);
  EXPECT_LE(per_op, kAllocsPerOpBudget);
  RecordProperty("allocs_per_op", std::to_string(per_op));
}

}  // namespace
}  // namespace repli::core

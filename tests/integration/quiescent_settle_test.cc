// Quiescent settle: Cluster::settle stops once no foreground event is
// pending or has dispatched for the quiet window, instead of simulating the
// whole requested duration. The idle tail it skips holds only background
// events (heartbeats, failure-detector ticks, membership polls, monitor
// samples), so stopping early must change nothing a run reports: every
// technique, under a crash or a healed partition, must end with the same
// history, storage, checker verdict and non-heartbeat traffic as a run that
// simulates the full duration.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/batch.hh"
#include "core/cluster.hh"
#include "core/passive.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

constexpr sim::Time kSettle = 5 * sim::kSec;

/// Closed loop: every client issues `ops` puts/adds/gets back to back.
/// `mid`, if set, runs in an event of its own once client 0 is half done.
void drive(Cluster& cluster, int ops, std::function<void(Cluster&)> mid = nullptr) {
  const int clients = cluster.client_count();
  std::vector<int> issued(static_cast<std::size_t>(clients), 0);
  int active = clients;
  std::function<void(int)> issue = [&](int c) {
    const int n = issued[static_cast<std::size_t>(c)]++;
    const auto key = "k" + std::to_string((c + n) % 4);
    db::Operation op = n % 3 == 0   ? op_put(key, "v" + std::to_string(c) + "-" + std::to_string(n))
                       : n % 3 == 1 ? op_add("c" + std::to_string(n % 2), 1)
                                    : op_get(key);
    if (c == 0 && n == ops / 2 && mid) {
      cluster.sim().schedule_after(0, [&cluster, mid] { mid(cluster); });
    }
    cluster.submit_op(c, std::move(op), [&, c](const ClientReply&) {
      if (issued[static_cast<std::size_t>(c)] < ops) {
        issue(c);
      } else {
        --active;
      }
    });
  };
  for (int c = 0; c < clients; ++c) issue(c);
  while (active > 0 && cluster.sim().now() < 60 * sim::kSec) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
}

enum class Scenario { CrashMidWorkload, PartitionHealedAtSettle };

struct Outcome {
  std::vector<std::string> ops;      // one line per client op
  std::vector<std::string> commits;  // one line per commit record
  std::vector<std::uint64_t> digests;
  bool checks_ok = false;
  std::string failed_check;
  std::map<std::string, std::int64_t> traffic;  // per wire type, heartbeats excluded
  sim::Time settle_skipped = 0;
};

Outcome run(TechniqueKind kind, Scenario scenario, bool quiescent) {
  auto cfg = testing::quiet_config(kind, 3, 2, 7);
  Cluster cluster(cfg);
  if (scenario == Scenario::CrashMidWorkload) {
    bool crashed = false;
    drive(cluster, 12, [&crashed](Cluster& c) {
      c.crash_replica(0);
      crashed = true;
    });
    EXPECT_TRUE(crashed);
  } else {
    // Replica 2 is cut off long enough to be suspected; the cut heals
    // exactly when the settle starts.
    sim::Time cut_at = 0;
    drive(cluster, 12, [&cut_at](Cluster& c) {
      cut_at = c.sim().now();
      c.sim().net().set_partition([](sim::NodeId from, sim::NodeId to) {
        if (from >= 3 || to >= 3) return false;  // client links stay up
        return from == 2 || to == 2;
      });
    });
    EXPECT_GT(cut_at, 0);
    cluster.sim().run_until(std::max(cluster.sim().now(), cut_at + 50 * sim::kMsec));
    cluster.sim().net().set_partition(nullptr);
  }
  const sim::Time start = cluster.sim().now();
  if (quiescent) {
    cluster.settle(kSettle);
  } else {
    cluster.sim().run_until(start + kSettle);
  }

  Outcome out;
  out.settle_skipped = start + kSettle - cluster.sim().now();
  for (const auto& op : cluster.history().ops()) {
    out.ops.push_back(op.request_id + " ok=" + std::to_string(op.ok) + " [" +
                      std::to_string(op.invoke) + "," + std::to_string(op.response) + "] " +
                      op.result);
  }
  for (const auto& commit : cluster.history().commits()) {
    std::string line = std::to_string(commit.replica) + " " + commit.txn + " @" +
                       std::to_string(commit.at) + " seq " + std::to_string(commit.commit_seq);
    for (const auto& [key, value] : commit.writes) line += " " + key + "=" + value;
    out.commits.push_back(std::move(line));
  }
  out.digests = cluster.storage_digests();
  auto opts = check::checks_for(kind);
  opts.taint_slow_ops = cfg.client_retry_timeout;
  const auto verdict = check::run_checks(cluster.history(), out.digests, opts);
  out.checks_ok = verdict.ok;
  out.failed_check = verdict.failed_check;
  for (const auto& [type, count] : cluster.sim().net().per_type_count()) {
    if (type != "gcs.Heartbeat") out.traffic[std::string(type)] = count;
  }
  return out;
}

void expect_equivalent(TechniqueKind kind, Scenario scenario) {
  const Outcome full = run(kind, scenario, /*quiescent=*/false);
  const Outcome quiet = run(kind, scenario, /*quiescent=*/true);
  EXPECT_EQ(full.settle_skipped, 0);
  EXPECT_GT(quiet.settle_skipped, 0) << "settle never went quiescent";
  EXPECT_EQ(quiet.ops, full.ops);
  EXPECT_EQ(quiet.commits, full.commits);
  EXPECT_EQ(quiet.digests, full.digests);
  EXPECT_EQ(quiet.checks_ok, full.checks_ok);
  EXPECT_EQ(quiet.failed_check, full.failed_check);
  EXPECT_EQ(quiet.traffic, full.traffic);
}

class QuiescentSettle : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(QuiescentSettle, CrashMidWorkloadMatchesFullSettle) {
  expect_equivalent(GetParam(), Scenario::CrashMidWorkload);
}

TEST_P(QuiescentSettle, PartitionHealedAtSettleStartMatchesFullSettle) {
  expect_equivalent(GetParam(), Scenario::PartitionHealedAtSettle);
}

// Guard for the gain itself: a fault-free settle must end well inside its
// budget. A new foreground timer that re-arms forever would silently turn
// every settle back into a full-duration one.
TEST_P(QuiescentSettle, FaultFreeSettleEndsEarly) {
  Cluster cluster(testing::quiet_config(GetParam(), 3, 2, 7));
  drive(cluster, 12);
  const sim::Time start = cluster.sim().now();
  cluster.settle(kSettle);
  EXPECT_LT(cluster.sim().now() - start, 1 * sim::kSec)
      << "settle simulated " << cluster.sim().now() - start << "us of a " << kSettle
      << "us budget; pending foreground events: " << cluster.sim().pending_foreground();
  const auto& skipped = cluster.sim().metrics().histogram("sim.settle.skipped_us").data();
  ASSERT_EQ(skipped.count(), 1u);
  EXPECT_EQ(static_cast<sim::Time>(skipped.mean()), start + kSettle - cluster.sim().now());
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, QuiescentSettle,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

TEST(QuiescentSettle, CrashAtSettleStartStillChangesTheView) {
  // Nothing is pending when the primary crashes: the only road from the
  // crash to foreground work is heartbeat silence -> suspicion -> the
  // membership poll -> a flush. The quiet window must cover that chain.
  Cluster cluster(testing::quiet_config(TechniqueKind::Passive));
  ASSERT_TRUE(cluster.run_op(0, op_put("k", "v")).ok);
  cluster.settle(kSettle);
  ASSERT_EQ(cluster.sim().pending_foreground(), 0u);

  cluster.crash_replica(0);
  const sim::Time start = cluster.sim().now();
  cluster.settle(kSettle);
  EXPECT_LT(cluster.sim().now() - start, kSettle) << "settle should still end early";
  EXPECT_GE(cluster.sim().metrics().counter_value("gcs.fd.suspicions"), 1);
  for (int i = 1; i < 3; ++i) {
    const auto& survivor = dynamic_cast<PassiveReplica&>(cluster.replica(i));
    EXPECT_GE(survivor.view().id, 1u) << "replica " << i << " missed the view change";
    EXPECT_FALSE(survivor.view().contains(0));
  }
  EXPECT_TRUE(dynamic_cast<PassiveReplica&>(cluster.replica(1)).is_primary());
}

TEST(QuiescentSettle, QuietWindowIsDerivedFromTheDetectorChain) {
  // Defaults: 10 ms timeout + 2 x 2 ms heartbeat interval + 5 ms membership
  // poll + one delivery (100 us base + 20 x 50 us jitter mean).
  Cluster cluster(testing::quiet_config(TechniqueKind::Active));
  EXPECT_EQ(cluster.quiet_window(), 20'100 * sim::kUsec);
  // A slower network stretches the window with it.
  auto cfg = testing::quiet_config(TechniqueKind::Active);
  cfg.net.base_latency = 5 * sim::kMsec;
  Cluster slow(cfg);
  EXPECT_EQ(slow.quiet_window(), cluster.quiet_window() + 4'900 * sim::kUsec);
}

}  // namespace
}  // namespace repli::core

// Schedule pin: three small fixed runs whose event order, event count and
// final replica states are recorded as constants. A change to the
// simulator's internals (event queue, network accounting, storage layout)
// must leave every one of them byte-identical; a change that moves one has
// changed what the system does, not just how fast it does it. The runs
// cover the three shapes the benchmark measures: active replication over
// sequencer ABCAST, eager locking with batching and frame coalescing on
// contended zipf keys, and an exploration trial with tie-break and jitter
// perturbation plus a crash. Crash runs of every technique pin the failure
// handling: which members a technique stops waiting for, where a client is
// redirected after a primary dies, and what each survivor installs.
//
// When a change is meant to move the schedule, re-record the constants from
// the failure output and say why in the change's description.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "core/technique.hh"
#include "explore/plan.hh"
#include "explore/trial.hh"
#include "util/rng.hh"

namespace repli {
namespace {

struct Pin {
  std::uint64_t schedule_digest = 0;
  std::uint64_t events = 0;
  std::int64_t messages = 0;
  std::vector<std::uint64_t> storage_digests;
};

/// Closed-loop clients: each runs its script one op at a time, with a
/// think time drawn from the script's own stream after every reply.
Pin run_closed_loop(const core::ClusterConfig& config,
                    const std::function<db::Operation(util::Rng&, int, int)>& next_op,
                    int ops_per_client, double think_mean_us) {
  core::Cluster cluster(config);
  auto& sim = cluster.sim();
  std::vector<util::Rng> rngs;
  for (int c = 0; c < config.clients; ++c) {
    rngs.emplace_back(1000 + static_cast<std::uint64_t>(c));
  }
  std::vector<int> issued(static_cast<std::size_t>(config.clients), 0);
  int remaining = config.clients * ops_per_client;
  std::function<void(int)> issue = [&](int c) {
    auto& rng = rngs[static_cast<std::size_t>(c)];
    const int i = issued[static_cast<std::size_t>(c)]++;
    cluster.submit_op(c, next_op(rng, c, i), [&, c](const core::ClientReply&) {
      --remaining;
      if (issued[static_cast<std::size_t>(c)] == ops_per_client) return;
      const auto think =
          static_cast<sim::Time>(rngs[static_cast<std::size_t>(c)].exponential(think_mean_us));
      sim.schedule_after(think, [&issue, c] { issue(c); });
    });
  };
  for (int c = 0; c < config.clients; ++c) issue(c);
  while (remaining > 0 && sim.now() < 60 * sim::kSec) {
    sim.run_until(sim.now() + 10 * sim::kMsec);
  }
  EXPECT_EQ(remaining, 0);
  cluster.settle(2 * sim::kSec);
  return Pin{sim.schedule_digest(), sim.events_dispatched(), sim.net().messages_sent(),
             cluster.storage_digests()};
}

void expect_pinned(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.schedule_digest, want.schedule_digest);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.storage_digests, want.storage_digests);
}

TEST(SchedulePin, ActiveOverSequencerAbcast) {
  core::ClusterConfig cfg;
  cfg.kind = core::TechniqueKind::Active;
  cfg.replicas = 5;
  cfg.clients = 4;
  cfg.seed = 17;
  // 50 ops per client, 200 in all: half blind puts, half gets, 64 keys.
  const auto got = run_closed_loop(
      cfg,
      [](util::Rng& rng, int c, int i) {
        const std::string key = "k" + std::to_string(rng.uniform(0, 63));
        return rng.uniform01() < 0.5
                   ? core::op_put(key, "v" + std::to_string(c) + "-" + std::to_string(i))
                   : core::op_get(key);
      },
      50, 1000.0);
  expect_pinned(got, Pin{17491884972623701409ull, 20713, 19156,
                         std::vector<std::uint64_t>(5, 10509528485224699020ull)});
}

TEST(SchedulePin, EagerLockingBatchedOnZipfKeys) {
  core::ClusterConfig cfg;
  cfg.kind = core::TechniqueKind::EagerLocking;
  cfg.replicas = 3;
  cfg.clients = 4;
  cfg.seed = 23;
  cfg.batch_max_ops = 8;
  cfg.locking_max_attempts = 50;
  const util::Zipf zipf(32, 0.9);
  const auto got = run_closed_loop(
      cfg,
      [&zipf](util::Rng& rng, int, int) {
        const std::string key = "c" + std::to_string(zipf.sample(rng));
        return rng.uniform01() < 0.9 ? core::op_add(key, 1) : core::op_get(key);
      },
      30, 200.0);
  expect_pinned(got, Pin{15907993763433023898ull, 7662, 3463,
                         std::vector<std::uint64_t>(3, 18433235956479811638ull)});
}

TEST(SchedulePin, ExploreTrialWithTieBreakAndJitter) {
  explore::TrialConfig tc;
  tc.kind = core::TechniqueKind::SemiPassive;
  tc.workload_seed = 31;
  tc.schedule_seed = 37;
  tc.plan = explore::parse_plan("tie; jitter=300; crash@t20000:r1").value();
  Pin got;
  tc.extra_check = [&got](const explore::TrialConfig&, core::Cluster& cluster) {
    got.messages = cluster.sim().net().messages_sent();
    got.storage_digests = cluster.storage_digests();
    return std::string();
  };
  const auto result = explore::run_trial(tc);
  EXPECT_TRUE(result.ok) << result.failed_check << ": " << result.violation;
  EXPECT_GT(result.ties_randomized, 0u);
  got.schedule_digest = result.schedule_digest;
  got.events = result.events;
  // r1 crashed: the two live replicas are digested.
  expect_pinned(got, Pin{10516536607071967799ull, 7979, 6199,
                         std::vector<std::uint64_t>(2, 9286247159512237666ull)});
}

// Two trials of the 25-trial exploration sweep. Trial 17 crashes r0 in every
// technique; r0 is the primary of passive and eager primary copy. Trial 11
// crashes backup r1 under jitter, run for the two techniques whose waits drop
// a suspect: eager locking's lock and execution waits and eager primary
// copy's ship wait go on without it. Eager locking's trial-17 run is a crash of
// the delegate of two transactions, whose clients give up (2 failed ops): the
// fix for delegate crashes will move that pin on purpose.
struct CrashPin {
  core::TechniqueKind kind;
  int trial;
  std::size_t ops_failed;
  std::uint64_t schedule_digest;
  std::uint64_t events;
  std::int64_t messages;
  std::uint64_t storage_digest;  // of each of the two surviving replicas
};

std::string crash_pin_name(const ::testing::TestParamInfo<CrashPin>& info) {
  std::string name{core::technique_name(info.param.kind)};
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_trial" + std::to_string(info.param.trial);
}

class CrashSchedulePin : public ::testing::TestWithParam<CrashPin> {};

TEST_P(CrashSchedulePin, SurvivorsAndScheduleUnchanged) {
  const CrashPin& pin = GetParam();
  explore::TrialConfig tc;
  tc.kind = pin.kind;
  if (pin.trial == 17) {
    tc.workload_seed = 0xbc2ecc35812e3751ull;
    tc.schedule_seed = 0x6a24842fb5f6fd57ull;
    tc.plan = explore::parse_plan("tie; crash@t19966:r0").value();
  } else {
    tc.workload_seed = 0xa646069def548f7cull;
    tc.schedule_seed = 0x5b5952d95caf9b35ull;
    tc.plan = explore::parse_plan("tie; jitter=552; crash@t55399:r1").value();
  }
  Pin got;
  tc.extra_check = [&got](const explore::TrialConfig&, core::Cluster& cluster) {
    got.messages = cluster.sim().net().messages_sent();
    got.storage_digests = cluster.storage_digests();
    return std::string();
  };
  const auto result = explore::run_trial(tc);
  EXPECT_TRUE(result.ok) << result.failed_check << ": " << result.violation;
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.ops_failed, pin.ops_failed);
  got.schedule_digest = result.schedule_digest;
  got.events = result.events;
  expect_pinned(got, Pin{pin.schedule_digest, pin.events, pin.messages,
                         std::vector<std::uint64_t>(2, pin.storage_digest)});
}

using core::TechniqueKind;
const CrashPin kCrashPins[] = {
    {TechniqueKind::Active, 17, 0,
     9530741375860116146ull, 2837, 2481, 578399402755911242ull},
    {TechniqueKind::Passive, 17, 0,
     17131725744111242285ull, 1653, 1230, 578399402755911242ull},
    {TechniqueKind::SemiActive, 17, 0,
     4630998642175492341ull, 3544, 3131, 578399402755911242ull},
    {TechniqueKind::SemiPassive, 17, 0,
     10578558010412616481ull, 11145, 7615, 10433282304098231729ull},
    {TechniqueKind::EagerPrimary, 17, 0,
     15141957987370485596ull, 4224, 2817, 578399402755911242ull},
    {TechniqueKind::EagerLocking, 17, 2,
     17750557541407171221ull, 75886, 49662, 5024587592502097489ull},
    {TechniqueKind::EagerAbcast, 17, 0,
     16937568933718029875ull, 1972, 1620, 578399402755911242ull},
    {TechniqueKind::LazyPrimary, 17, 0,
     11218044225591961220ull, 511, 312, 4245415717805919348ull},
    {TechniqueKind::LazyEverywhere, 17, 0,
     1860440446173389397ull, 1246, 1008, 13581321523230526850ull},
    {TechniqueKind::Certification, 17, 0,
     14155338116807790437ull, 2099, 1664, 578399402755911242ull},
    {TechniqueKind::EagerPrimary, 11, 0,
     1815477626235910602ull, 3844, 2582, 9124448894992017875ull},
    {TechniqueKind::EagerLocking, 11, 0,
     12848775808924212206ull, 11864, 7772, 6246121522488420689ull},
};

INSTANTIATE_TEST_SUITE_P(SchedulePin, CrashSchedulePin, ::testing::ValuesIn(kCrashPins),
                         crash_pin_name);

}  // namespace
}  // namespace repli

#include "gcs/fd.hh"

#include <gtest/gtest.h>

#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

class FdNode : public ComponentHost {
 public:
  FdNode(sim::NodeId id, sim::Simulator& sim, const Group& group)
      : ComponentHost(id, sim, "fd-node"), fd(*this, group) {
    add_component(fd);
    fd.on_suspect([this](sim::NodeId who) { suspicions.push_back(who); });
    fd.on_trust([this](sim::NodeId who) { trusts.push_back(who); });
  }

  FailureDetector fd;
  std::vector<sim::NodeId> suspicions;
  std::vector<sim::NodeId> trusts;
};

TEST(FailureDetector, NoSuspicionsOnHealthyGroup) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  auto& a = sim.spawn<FdNode>(group);
  auto& b = sim.spawn<FdNode>(group);
  auto& c = sim.spawn<FdNode>(group);
  sim.start_all();
  sim.run_until(1 * sim::kSec);
  EXPECT_TRUE(a.suspicions.empty());
  EXPECT_TRUE(b.suspicions.empty());
  EXPECT_TRUE(c.suspicions.empty());
  EXPECT_EQ(a.fd.lowest_trusted(), 0);
  EXPECT_EQ(c.fd.lowest_trusted(), 0);
}

TEST(FailureDetector, CrashedMemberSuspectedWithinTimeout) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  auto& a = sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  auto& c = sim.spawn<FdNode>(group);
  sim.start_all();
  sim.schedule_at(100 * sim::kMsec, [&] { sim.crash(1); });
  sim.run_until(200 * sim::kMsec);
  EXPECT_TRUE(a.fd.suspects(1));
  EXPECT_TRUE(c.fd.suspects(1));
  EXPECT_FALSE(a.fd.suspects(2));
  EXPECT_EQ(a.suspicions, (std::vector<sim::NodeId>{1}));
  EXPECT_EQ(a.fd.lowest_trusted(), 0);
}

TEST(FailureDetector, LowestTrustedSkipsCrashedHead) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  sim.spawn<FdNode>(group);
  auto& b = sim.spawn<FdNode>(group);
  auto& c = sim.spawn<FdNode>(group);
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] { sim.crash(0); });
  sim.run_until(200 * sim::kMsec);
  EXPECT_EQ(b.fd.lowest_trusted(), 1);
  EXPECT_EQ(c.fd.lowest_trusted(), 1);
}

TEST(FailureDetector, FalseSuspicionRevokedAfterPartitionHeals) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(2);
  auto& a = sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  sim.start_all();
  // Cut node 1's heartbeats towards node 0 for a while.
  sim.schedule_at(20 * sim::kMsec, [&] {
    sim.net().set_partition([](sim::NodeId from, sim::NodeId to) { return from == 1 && to == 0; });
  });
  sim.schedule_at(100 * sim::kMsec, [&] { sim.net().set_partition(nullptr); });
  sim.run_until(300 * sim::kMsec);
  EXPECT_FALSE(a.fd.suspects(1));
  EXPECT_EQ(a.suspicions, (std::vector<sim::NodeId>{1}));
  EXPECT_EQ(a.trusts, (std::vector<sim::NodeId>{1}));
}

TEST(FailureDetector, AllOthersCrashedMeansLowestTrustedIsSelf) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  auto& c = sim.spawn<FdNode>(group);
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] {
    sim.crash(0);
    sim.crash(1);
  });
  sim.run_until(300 * sim::kMsec);
  EXPECT_EQ(c.fd.lowest_trusted(), 2);
  EXPECT_EQ(c.fd.suspected().size(), 2u);
}

TEST(FailureDetector, TrustedListsUnsuspectedMembersInIdOrderWithHost) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  auto& c = sim.spawn<FdNode>(group);
  sim.start_all();
  sim.run_until(50 * sim::kMsec);
  EXPECT_EQ(c.fd.trusted(), (std::vector<sim::NodeId>{0, 1, 2}));
  // Cut node 1's heartbeats towards node 2: 1 leaves the list, then returns.
  sim.net().set_partition([](sim::NodeId from, sim::NodeId to) { return from == 1 && to == 2; });
  sim.run_until(200 * sim::kMsec);
  ASSERT_TRUE(c.fd.suspects(1));
  EXPECT_EQ(c.fd.trusted(), (std::vector<sim::NodeId>{0, 2}));
  sim.net().set_partition(nullptr);
  sim.run_until(300 * sim::kMsec);
  ASSERT_EQ(c.trusts, (std::vector<sim::NodeId>{1}));
  EXPECT_EQ(c.fd.trusted(), (std::vector<sim::NodeId>{0, 1, 2}));
}

TEST(FailureDetector, TrustedKeepsHostWhenAllOthersCrash) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  sim.spawn<FdNode>(group);
  auto& b = sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] {
    sim.crash(0);
    sim.crash(2);
  });
  sim.run_until(300 * sim::kMsec);
  EXPECT_FALSE(b.fd.suspects(1));
  EXPECT_EQ(b.fd.trusted(), (std::vector<sim::NodeId>{1}));
}

TEST(FailureDetector, MultipleListenersAllNotified) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(2);
  auto& a = sim.spawn<FdNode>(group);
  sim.spawn<FdNode>(group);
  int second_listener_calls = 0;
  a.fd.on_suspect([&](sim::NodeId) { ++second_listener_calls; });
  sim.start_all();
  sim.schedule_at(30 * sim::kMsec, [&] { sim.crash(1); });
  sim.run_until(200 * sim::kMsec);
  EXPECT_EQ(a.suspicions.size(), 1u);
  EXPECT_EQ(second_listener_calls, 1);
}

}  // namespace
}  // namespace repli::gcs

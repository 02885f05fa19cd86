#include "gcs/view.hh"

#include <gtest/gtest.h>

#include <map>

#include "tests/gcs/gcs_test_util.hh"

namespace repli::gcs {
namespace {

using testing::note;

class ViewNode : public ComponentHost {
 public:
  ViewNode(sim::NodeId id, sim::Simulator& sim, const Group& group)
      : ComponentHost(id, sim, "view-node"),
        fd(*this, group),
        vg(*this, group, fd, 10) {
    add_component(fd);
    add_component(vg);
    vg.set_deliver([this](sim::NodeId origin, wire::MessagePtr msg) {
      // Record which view the message was delivered in.
      delivered_by_view[vg.view().id].emplace_back(origin, testing::note_text(msg));
    });
    vg.on_view([this](const View& v) { views.push_back(v); });
  }

  std::vector<std::pair<sim::NodeId, std::string>> all_delivered() const {
    std::vector<std::pair<sim::NodeId, std::string>> out;
    for (const auto& [vid, msgs] : delivered_by_view) {
      out.insert(out.end(), msgs.begin(), msgs.end());
    }
    return out;
  }

  FailureDetector fd;
  ViewGroup vg;
  std::map<std::uint64_t, std::vector<std::pair<sim::NodeId, std::string>>> delivered_by_view;
  std::vector<View> views;
};

TEST(ViewGroup, InitialViewContainsEveryone) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.run_until(100 * sim::kMsec);
  for (const auto* n : nodes) {
    ASSERT_FALSE(n->views.empty());
    EXPECT_EQ(n->views[0].id, 0u);
    EXPECT_EQ(n->views[0].members, group.members());
    EXPECT_EQ(n->views[0].primary(), 0);
  }
}

TEST(ViewGroup, VscastReachesWholeView) {
  sim::Simulator sim(1);
  const auto group = testing::first_n(4);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(10 * sim::kMsec, [&] { nodes[1]->vg.vscast(note("hi")); });
  sim.run_until(200 * sim::kMsec);
  for (const auto* n : nodes) {
    const auto all = n->all_delivered();
    ASSERT_EQ(all.size(), 1u) << "node " << n->id();
    EXPECT_EQ(all[0].first, 1);
    EXPECT_EQ(all[0].second, "hi");
  }
}

TEST(ViewGroup, CrashInstallsNewViewWithoutTheDead) {
  sim::Simulator sim(5);
  const auto group = testing::first_n(4);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] { sim.crash(2); });
  sim.run_until(2 * sim::kSec);
  for (const auto* n : nodes) {
    if (n->crashed()) continue;
    const auto& v = n->vg.view();
    EXPECT_GE(v.id, 1u) << "node " << n->id() << " never installed a new view";
    EXPECT_FALSE(v.contains(2));
    EXPECT_EQ(v.members, (std::vector<sim::NodeId>{0, 1, 3}));
  }
}

TEST(ViewGroup, PrimaryCrashPromotesNextLowest) {
  sim::Simulator sim(5);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] { sim.crash(0); });
  sim.run_until(2 * sim::kSec);
  EXPECT_EQ(nodes[1]->vg.view().primary(), 1);
  EXPECT_EQ(nodes[2]->vg.view().primary(), 1);
}

TEST(ViewGroup, ViewSynchronyMessagesDeliveredInSendingView) {
  // Survivors must agree on the set of view-0 messages before entering
  // view 1, even when the sender crashes mid-broadcast.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    sim::NetworkConfig net;
    net.jitter_mean = 300;
    sim::Simulator sim(seed, net);
    const auto group = testing::first_n(4);
    std::vector<ViewNode*> nodes;
    for (int i = 0; i < 4; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
    sim.start_all();
    sim.schedule_at(10 * sim::kMsec, [&] {
      nodes[3]->vg.vscast(note("doomed-1"));
      nodes[3]->vg.vscast(note("doomed-2"));
      nodes[1]->vg.vscast(note("steady"));
    });
    sim.schedule_at(10 * sim::kMsec + 200, [&] { sim.crash(3); });
    sim.run_until(3 * sim::kSec);

    // All survivors reach view >= 1 without node 3.
    for (const auto* n : nodes) {
      if (n->crashed()) continue;
      ASSERT_GE(n->vg.view().id, 1u) << "seed " << seed;
    }
    // View synchrony: view-0 deliveries identical across survivors.
    auto view0 = [&](const ViewNode& n) {
      std::multiset<std::string> out;
      if (const auto it = n.delivered_by_view.find(0); it != n.delivered_by_view.end()) {
        for (const auto& [o, t] : it->second) out.insert(t);
      }
      return out;
    };
    const auto ref = view0(*nodes[0]);
    EXPECT_EQ(view0(*nodes[1]), ref) << "seed " << seed;
    EXPECT_EQ(view0(*nodes[2]), ref) << "seed " << seed;
    // "steady" from a surviving sender must be in there.
    EXPECT_TRUE(ref.contains("steady")) << "seed " << seed;
  }
}

TEST(ViewGroup, SendsDuringFlushArriveInNextView) {
  sim::Simulator sim(9);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(20 * sim::kMsec, [&] { sim.crash(2); });
  // Poll until node 0 is mid-flush, then vscast.
  bool sent_during_flush = false;
  std::function<void()> poll = [&] {
    if (nodes[0]->crashed()) return;
    if (nodes[0]->vg.flushing() && !sent_during_flush) {
      sent_during_flush = true;
      nodes[0]->vg.vscast(note("queued"));
      return;
    }
    if (!sent_during_flush) sim.schedule_after(1 * sim::kMsec, poll);
  };
  sim.schedule_at(21 * sim::kMsec, poll);
  sim.run_until(3 * sim::kSec);

  ASSERT_TRUE(sent_during_flush) << "flush window never observed";
  for (const auto* n : {nodes[0], nodes[1]}) {
    bool found_in_later_view = false;
    for (const auto& [vid, msgs] : n->delivered_by_view) {
      for (const auto& [o, t] : msgs) {
        if (t == "queued") {
          found_in_later_view = vid >= 1;
        }
      }
    }
    EXPECT_TRUE(found_in_later_view) << "node " << n->id();
  }
}

TEST(ViewGroup, CascadingCrashesShrinkToSingleton) {
  sim::Simulator sim(3);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(50 * sim::kMsec, [&] { sim.crash(0); });
  sim.schedule_at(1 * sim::kSec, [&] { sim.crash(1); });
  sim.run_until(5 * sim::kSec);
  EXPECT_EQ(nodes[2]->vg.view().members, (std::vector<sim::NodeId>{2}));
  EXPECT_EQ(nodes[2]->vg.view().primary(), 2);
}

TEST(ViewGroup, MessagesKeepFlowingAcrossViewChange) {
  sim::Simulator sim(21);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(10 * sim::kMsec, [&] { nodes[1]->vg.vscast(note("v0-msg")); });
  sim.schedule_at(30 * sim::kMsec, [&] { sim.crash(2); });
  sim.schedule_at(2 * sim::kSec, [&] { nodes[1]->vg.vscast(note("v1-msg")); });
  sim.run_until(4 * sim::kSec);
  for (const auto* n : {nodes[0], nodes[1]}) {
    std::multiset<std::string> texts;
    for (const auto& [vid, msgs] : n->delivered_by_view) {
      for (const auto& [o, t] : msgs) texts.insert(t);
    }
    EXPECT_TRUE(texts.contains("v0-msg")) << "node " << n->id();
    EXPECT_TRUE(texts.contains("v1-msg")) << "node " << n->id();
  }
}

TEST(ViewGroup, VscastSurvivesMessageLoss) {
  sim::NetworkConfig net;
  net.drop_probability = 0.25;
  sim::Simulator sim(41, net);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at((10 + i) * sim::kMsec,
                    [&, i] { nodes[0]->vg.vscast(note("m" + std::to_string(i))); });
  }
  sim.run_until(10 * sim::kSec);
  for (const auto* n : nodes) {
    ASSERT_EQ(n->all_delivered().size(), 10u) << "node " << n->id();
  }
}

TEST(ViewGroup, FifoPerOriginWithinView) {
  sim::NetworkConfig net;
  net.jitter_mean = 1000;  // heavy reordering pressure
  sim::Simulator sim(43, net);
  const auto group = testing::first_n(3);
  std::vector<ViewNode*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.spawn<ViewNode>(group));
  sim.start_all();
  sim.schedule_at(10 * sim::kMsec, [&] {
    for (int i = 0; i < 20; ++i) nodes[1]->vg.vscast(note(std::to_string(i)));
  });
  sim.run_until(10 * sim::kSec);
  for (const auto* n : nodes) {
    const auto all = n->all_delivered();
    ASSERT_EQ(all.size(), 20u) << "node " << n->id();
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(all[static_cast<std::size_t>(i)].second, std::to_string(i))
          << "FIFO from the primary violated at node " << n->id() << " (§3.3!)";
    }
  }
}

}  // namespace
}  // namespace repli::gcs

// Scoped cost accounting: attribution by scope nesting (self vs total),
// exact heap counting through the replacement operator new, folded
// flamegraph export from the span tracer, and the disabled-by-default
// guarantees the hot paths rely on.
#include "obs/profile.hh"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

namespace repli::obs {
namespace {

/// Restores the global profiler around each test (it is process-global).
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::global().clear();
    Profiler::global().enable();
  }
  void TearDown() override {
    Profiler::global().disable();
    Profiler::global().clear();
  }
};

TEST_F(ProfileTest, CostCenterNamesAreStableAndDistinct) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kCostCenterCount; ++i) {
    names.insert(cost_center_name(static_cast<CostCenter>(i)));
  }
  EXPECT_EQ(names.size(), kCostCenterCount);
  EXPECT_EQ(cost_center_name(CostCenter::WireEncode), "wire.encode");
  EXPECT_EQ(cost_center_name(CostCenter::LockMgr), "db.lock");
  EXPECT_EQ(cost_center_name(CostCenter::Checker), "check");
}

TEST_F(ProfileTest, ScopesCountCallsPerCenter) {
  for (int i = 0; i < 3; ++i) {
    ProfScope scope(CostCenter::WireEncode);
  }
  { ProfScope scope(CostCenter::LockMgr); }
  EXPECT_EQ(Profiler::global().bucket(CostCenter::WireEncode).calls, 3u);
  EXPECT_EQ(Profiler::global().bucket(CostCenter::LockMgr).calls, 1u);
  EXPECT_EQ(Profiler::global().bucket(CostCenter::Checker).calls, 0u);
}

TEST_F(ProfileTest, AllocationCountersSeeHeapActivityExactly) {
  const std::uint64_t count0 = thread_alloc_count();
  const std::uint64_t bytes0 = thread_alloc_bytes();
  {
    auto p = std::make_unique<std::uint64_t[]>(64);  // one 512-byte allocation
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(thread_alloc_count() - count0, 1u);
  EXPECT_EQ(thread_alloc_bytes() - bytes0, 64 * sizeof(std::uint64_t));
}

TEST_F(ProfileTest, NestedScopeAllocationsLandInTheInnerCenter) {
  {
    ProfScope outer(CostCenter::GcsAbcast);
    {
      ProfScope inner(CostCenter::WireEncode);
      auto p = std::make_unique<char[]>(1024);
      ASSERT_NE(p, nullptr);
    }
  }
  const auto& abcast = Profiler::global().bucket(CostCenter::GcsAbcast);
  const auto& encode = Profiler::global().bucket(CostCenter::WireEncode);
  EXPECT_EQ(encode.self_allocs, 1u);
  EXPECT_EQ(encode.self_alloc_bytes, 1024u);
  // The outer scope's *self* cost excludes the nested scope entirely.
  EXPECT_EQ(abcast.self_allocs, 0u);
  EXPECT_EQ(abcast.self_alloc_bytes, 0u);
  // But its total includes the child's time.
  EXPECT_GE(abcast.total_ns, encode.total_ns);
  EXPECT_LE(abcast.self_ns, abcast.total_ns);
}

TEST_F(ProfileTest, SameCenterNestsWithoutDoubleCounting) {
  {
    ProfScope outer(CostCenter::LockMgr);
    {
      ProfScope inner(CostCenter::LockMgr);
      auto p = std::make_unique<char[]>(64);
      ASSERT_NE(p, nullptr);
    }
  }
  const auto& lock = Profiler::global().bucket(CostCenter::LockMgr);
  EXPECT_EQ(lock.calls, 2u);
  // The 64 bytes are attributed once (to the inner frame's self), not twice.
  EXPECT_EQ(lock.self_allocs, 1u);
  EXPECT_EQ(lock.self_alloc_bytes, 64u);
}

TEST_F(ProfileTest, DisabledProfilerAccumulatesNothing) {
  Profiler::global().disable();
  {
    ProfScope scope(CostCenter::Checker);
    auto p = std::make_unique<char[]>(256);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(Profiler::global().bucket(CostCenter::Checker).calls, 0u);
}

TEST_F(ProfileTest, ClearDropsAccumulatedCost) {
  { ProfScope scope(CostCenter::NetDelivery); }
  ASSERT_EQ(Profiler::global().bucket(CostCenter::NetDelivery).calls, 1u);
  Profiler::global().clear();
  EXPECT_EQ(Profiler::global().bucket(CostCenter::NetDelivery).calls, 0u);
}

// -- folded flamegraph export ------------------------------------------------

TEST(WriteFolded, SelfTimeIsDurationMinusChildren) {
  Tracer tracer;
  // node 0: a 100us root containing a 30us child; the child contains a
  // 10us grandchild on the same node.
  tracer.record(0, "root", 0, 100, "r1");
  tracer.record(0, "child", 10, 40, "r1");
  tracer.record(0, "grand", 20, 30, "r1");
  std::ostringstream os;
  write_folded(tracer, os);
  EXPECT_EQ(os.str(),
            "node0;root 70\n"
            "node0;root;child 20\n"
            "node0;root;child;grand 10\n");
}

TEST(WriteFolded, InstantsAndZeroSelfStacksAreDropped) {
  Tracer tracer;
  tracer.record(1, "covered", 0, 50);
  tracer.record(1, "filler", 0, 50);  // identical interval: parent gets zero self
  tracer.instant(1, "marker", 25);
  std::ostringstream os;
  write_folded(tracer, os);
  // "covered" (earlier id) becomes the parent with zero self-time and is
  // dropped; the instant never appears.
  EXPECT_EQ(os.str(), "node1;covered;filler 50\n");
}

TEST(WriteFolded, SiblingsDoNotNest) {
  // Two back-to-back spans on one node: [0,10) and [10,20). The second
  // starts exactly when the first ends; containment (pop enclosers ending
  // *before* my end) keeps them siblings.
  Tracer tracer;
  tracer.record(0, "a", 0, 10);
  tracer.record(0, "b", 10, 20);
  std::ostringstream os;
  write_folded(tracer, os);
  EXPECT_EQ(os.str(),
            "node0;a 10\n"
            "node0;b 10\n");
}

TEST(WriteFolded, NodesGetSeparateStackRoots) {
  Tracer tracer;
  tracer.record(0, "work", 0, 10);
  tracer.record(2, "work", 0, 20);
  std::ostringstream os;
  write_folded(tracer, os);
  EXPECT_EQ(os.str(),
            "node0;work 10\n"
            "node2;work 20\n");
}

}  // namespace
}  // namespace repli::obs

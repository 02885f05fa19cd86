#include "util/seq_ring.hh"

#include <gtest/gtest.h>

#include <memory>

namespace repli::util {
namespace {

TEST(SeqRing, SlotsFollowTheirSequenceNumbersAcrossWrapAndGrowth) {
  SeqRing<int> ring(1);
  // Slide the window so it wraps the initial capacity, then grow it while
  // wrapped: every slot must keep its sequence number.
  for (std::uint64_t seq = 1; seq <= 6; ++seq) ring.push_back(static_cast<int>(seq));
  for (int i = 0; i < 5; ++i) ring.pop_front();
  EXPECT_EQ(ring.base(), 6u);
  for (std::uint64_t seq = 7; seq <= 40; ++seq) ring.push_back(static_cast<int>(seq));
  EXPECT_EQ(ring.size(), 35u);
  for (std::uint64_t seq = ring.base(); seq < ring.end(); ++seq) {
    EXPECT_EQ(ring[seq], static_cast<int>(seq));
  }
  EXPECT_FALSE(ring.contains(5));
  EXPECT_FALSE(ring.contains(41));
}

TEST(SeqRing, ExtendFillsTheGapWithEmptySlots) {
  SeqRing<int> ring(1);
  ring.extend_to(4) = 4;
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[1], 0);
  EXPECT_EQ(ring[3], 0);
  EXPECT_EQ(ring[4], 4);
  ring.extend_to(2) = 2;  // inside the window: no growth
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_THROW(ring.extend_to(0), InvariantViolation);
}

TEST(SeqRing, PopFrontReleasesTheSlot) {
  SeqRing<std::shared_ptr<int>> ring(10);
  auto value = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = value;
  ring.push_back(std::move(value));
  ring.pop_front();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.base(), 11u);
}

}  // namespace
}  // namespace repli::util

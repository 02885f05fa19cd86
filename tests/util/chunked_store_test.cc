#include "util/chunked_store.hh"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace repli::util {
namespace {

/// Counts copies, moves and destructions, to show growth never relocates.
struct Tracked {
  static inline int copies = 0;
  static inline int moves = 0;
  static inline int destroyed = 0;
  static void reset() { copies = moves = destroyed = 0; }

  explicit Tracked(int v) : value(v) {}
  Tracked(const Tracked& o) : value(o.value) { ++copies; }
  Tracked(Tracked&& o) noexcept : value(o.value) { ++moves; }
  ~Tracked() { ++destroyed; }

  int value;
};

using SmallBlocks = ChunkedStore<int, 4 * sizeof(int)>;  // 4 ints per block

TEST(ChunkedStore, EmptyStoreOwnsNoMemory) {
  ChunkedStore<std::string> store;
  EXPECT_EQ(store.blocks(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.begin() == store.end());
  store.emplace_back("x");
  EXPECT_EQ(store.blocks(), 1u);
  store.clear();
  EXPECT_EQ(store.blocks(), 0u);
  EXPECT_TRUE(store.begin() == store.end());
}

TEST(ChunkedStore, BlocksAreAllocatedOneAtATime) {
  SmallBlocks store;
  ASSERT_EQ(SmallBlocks::kPerBlock, 4u);
  for (int i = 0; i < 9; ++i) {
    store.emplace_back(i);
    EXPECT_EQ(store.blocks(), static_cast<std::size_t>(i / 4 + 1)) << "after " << i + 1;
  }
}

TEST(ChunkedStore, IndexingAndIterationMatchAVector) {
  SmallBlocks store;
  std::vector<int> expected;
  for (std::size_t n = 0; n <= 13; ++n) {
    // Every fill level, including exact block boundaries (0, 4, 8, 12).
    std::vector<int> seen;
    for (const int v : store) seen.push_back(v);
    EXPECT_EQ(seen, expected) << "size " << n;
    for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(store[i], expected[i]);
    if (!expected.empty()) {
      EXPECT_EQ(store.back(), expected.back());
    }
    const int v = static_cast<int>(n * 7 % 11);
    store.emplace_back(v);
    expected.push_back(v);
  }
  for (auto& v : store) v += 100;  // mutable iteration
  EXPECT_EQ(store[13], expected[13] + 100);
}

TEST(ChunkedStore, GrowthNeverMovesStoredElements) {
  Tracked::reset();
  {
    ChunkedStore<Tracked, 8 * sizeof(Tracked)> store;
    std::vector<const Tracked*> addresses;
    for (int i = 0; i < 100; ++i) addresses.push_back(&store.emplace_back(i));
    EXPECT_EQ(Tracked::copies, 0);
    EXPECT_EQ(Tracked::moves, 0);  // constructed in place, never relocated
    EXPECT_EQ(Tracked::destroyed, 0);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(&store[static_cast<std::size_t>(i)], addresses[static_cast<std::size_t>(i)]);
      EXPECT_EQ(addresses[static_cast<std::size_t>(i)]->value, i);
    }
  }
  EXPECT_EQ(Tracked::destroyed, 100);  // the destructor destroys every element
}

TEST(ChunkedStore, MovingHandsOverBlocksWithoutRelocating) {
  Tracked::reset();
  {
    ChunkedStore<Tracked, 8 * sizeof(Tracked)> store;
    for (int i = 0; i < 20; ++i) store.emplace_back(i);
    const Tracked* first = &store[0];
    ChunkedStore<Tracked, 8 * sizeof(Tracked)> moved(std::move(store));
    EXPECT_EQ(&moved[0], first);
    EXPECT_EQ(moved.size(), 20u);
    EXPECT_EQ(store.blocks(), 0u);  // NOLINT(bugprone-use-after-move)
    ChunkedStore<Tracked, 8 * sizeof(Tracked)> assigned;
    assigned.emplace_back(-1);
    assigned = std::move(moved);
    EXPECT_EQ(&assigned[0], first);
    EXPECT_EQ(assigned[19].value, 19);
    EXPECT_EQ(Tracked::copies + Tracked::moves, 0);
    EXPECT_EQ(Tracked::destroyed, 1);  // only the overwritten element
  }
  EXPECT_EQ(Tracked::destroyed, 21);
}

TEST(ChunkedStore, OversizedElementsGetABlockEach) {
  using Big = std::array<char, 256>;
  ChunkedStore<Big, 64> store;
  EXPECT_EQ((ChunkedStore<Big, 64>::kPerBlock), 1u);
  store.emplace_back();
  store.emplace_back();
  EXPECT_EQ(store.blocks(), 2u);
}

}  // namespace
}  // namespace repli::util

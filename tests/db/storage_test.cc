#include "db/storage.hh"

#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "util/assert.hh"
#include "util/rng.hh"

namespace repli::db {
namespace {

TEST(Storage, GetMissingIsNullopt) {
  Storage s;
  EXPECT_FALSE(s.get("nope").has_value());
  EXPECT_EQ(s.size(), 0u);
}

TEST(Storage, PutThenGet) {
  Storage s;
  s.put("k", "v", 1, "t1");
  const auto rec = s.get("k");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->value, "v");
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->writer_txn, "t1");
}

TEST(Storage, OverwriteAdvancesVersion) {
  Storage s;
  s.put("k", "v1", 1, "t1");
  s.put("k", "v2", 5, "t2");
  EXPECT_EQ(s.get("k")->value, "v2");
  EXPECT_EQ(s.get("k")->version, 5u);
}

TEST(Storage, VersionRegressionRejected) {
  Storage s;
  s.put("k", "v1", 5, "t1");
  EXPECT_THROW(s.put("k", "v0", 3, "t0"), util::InvariantViolation);
}

TEST(Storage, ForcePutAllowsRegression) {
  Storage s;
  s.put("k", "v1", 5, "t1");
  s.force_put("k", "undone", 3, "reconciler");
  EXPECT_EQ(s.get("k")->value, "undone");
  EXPECT_EQ(s.get("k")->version, 3u);
}

TEST(Storage, DigestIgnoresVersions) {
  Storage a, b;
  a.put("x", "1", 1, "ta");
  a.put("y", "2", 2, "ta");
  b.put("y", "2", 7, "tb");  // different versions/writers, same values
  b.put("x", "1", 9, "tb");
  EXPECT_EQ(a.value_digest(), b.value_digest());
}

TEST(Storage, DigestDetectsValueDivergence) {
  Storage a, b;
  a.put("x", "1", 1, "t");
  b.put("x", "2", 1, "t");
  EXPECT_NE(a.value_digest(), b.value_digest());
}

TEST(Storage, DigestDetectsKeySetDivergence) {
  Storage a, b;
  a.put("x", "1", 1, "t");
  EXPECT_NE(a.value_digest(), b.value_digest());
}

/// The digest's definition, computed from scratch: FNV-1a over
/// "key=value;" for every key in key order.
std::uint64_t reference_digest(const std::map<Key, Value>& contents) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [key, value] : contents) {
    mix(key);
    mix("=");
    mix(value);
    mix(";");
  }
  return h;
}

TEST(Storage, DigestTracksNewKeysAndOverwritesAfterCaching) {
  // value_digest() caches the canonical key order; a key appearing later
  // (sorting anywhere, first included) must drop the cache, and overwrites
  // of known keys must show without one.
  Storage s;
  std::map<Key, Value> model;
  EXPECT_EQ(s.value_digest(), reference_digest(model));
  const auto put = [&](const Key& key, const Value& value, std::uint64_t version) {
    s.put(key, value, version, "t");
    model[key] = value;
    EXPECT_EQ(s.value_digest(), reference_digest(model)) << "after put " << key;
  };
  put("m", "1", 1);
  put("z", "2", 2);
  put("a", "3", 3);   // sorts before every cached key
  put("m", "4", 4);   // overwrite: no new key
  put("b", "5", 5);
  s.force_put("a", "undone", 1, "reconciler");
  model["a"] = "undone";
  EXPECT_EQ(s.value_digest(), reference_digest(model));
}

TEST(Storage, DigestMatchesDefinitionUnderRandomWrites) {
  util::Rng rng(11);
  Storage s;
  std::map<Key, Value> model;
  for (std::uint64_t v = 1; v <= 400; ++v) {
    const Key key = "k" + std::to_string(rng.uniform(0, 60));
    const Value value = std::to_string(rng.uniform(0, 1000));
    s.put(key, value, v, "t");
    model[key] = value;
    if (v % 7 == 0) ASSERT_EQ(s.value_digest(), reference_digest(model)) << "write " << v;
  }
  // A copy (as the techniques' scratch stores are) digests the same, and
  // keeps tracking its own new keys.
  Storage copy = s;
  EXPECT_EQ(copy.value_digest(), s.value_digest());
  copy.put("0-first", "x", 500, "t");
  model["0-first"] = "x";
  EXPECT_EQ(copy.value_digest(), reference_digest(model));
  EXPECT_NE(copy.value_digest(), s.value_digest());
}

TEST(Storage, CommitSeqMonotone) {
  Storage s;
  EXPECT_EQ(s.next_commit_seq(), 1u);
  EXPECT_EQ(s.next_commit_seq(), 2u);
  s.observe_commit_seq(10);
  EXPECT_EQ(s.next_commit_seq(), 11u);
  s.observe_commit_seq(5);  // no regression
  EXPECT_EQ(s.next_commit_seq(), 12u);
}

}  // namespace
}  // namespace repli::db

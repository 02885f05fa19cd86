#include "wire/message.hh"

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "util/rng.hh"

namespace repli::wire {
namespace {

enum class Color : std::int32_t { Red = 0, Green = 1, Blue = 2 };

struct Inner {
  std::int64_t x = 0;
  std::string tag;
  template <class Ar>
  void fields(Ar& ar) {
    ar(x);
    ar(tag);
  }
  bool operator==(const Inner&) const = default;
};

struct TestMsg : MessageBase<TestMsg> {
  static constexpr const char* kTypeName = "test.TestMsg";

  bool flag = false;
  std::int32_t small = 0;
  std::uint64_t big = 0;
  double ratio = 0.0;
  std::string name;
  Color color = Color::Red;
  std::vector<std::string> items;
  std::optional<std::int64_t> maybe;
  std::map<std::string, std::int64_t> table;
  Inner inner;
  std::vector<Inner> inners;

  template <class Ar>
  void fields(Ar& ar) {
    ar(flag);
    ar(small);
    ar(big);
    ar(ratio);
    ar(name);
    ar(color);
    ar(items);
    ar(maybe);
    ar(table);
    ar(inner);
    ar(inners);
  }
};

struct OtherMsg : MessageBase<OtherMsg> {
  static constexpr const char* kTypeName = "test.OtherMsg";
  std::int64_t v = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(v);
  }
};

TestMsg sample() {
  TestMsg m;
  m.flag = true;
  m.small = -12345;
  m.big = 0xDEADBEEFCAFEull;
  m.ratio = 0.75;
  m.name = "replica-3";
  m.color = Color::Blue;
  m.items = {"a", "", "ccc"};
  m.maybe = -7;
  m.table = {{"x", 1}, {"y", -2}};
  m.inner = Inner{99, "nested"};
  m.inners = {Inner{1, "one"}, Inner{2, "two"}};
  return m;
}

TEST(Message, FullRoundTripThroughRegistry) {
  const TestMsg m = sample();
  const auto bytes = encode_message(m);
  const MessagePtr back = decode_message(bytes);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type_name(), "test.TestMsg");
  const auto typed = message_cast<TestMsg>(back);
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->flag, m.flag);
  EXPECT_EQ(typed->small, m.small);
  EXPECT_EQ(typed->big, m.big);
  EXPECT_EQ(typed->ratio, m.ratio);
  EXPECT_EQ(typed->name, m.name);
  EXPECT_EQ(typed->color, m.color);
  EXPECT_EQ(typed->items, m.items);
  EXPECT_EQ(typed->maybe, m.maybe);
  EXPECT_EQ(typed->table, m.table);
  EXPECT_EQ(typed->inner, m.inner);
  EXPECT_EQ(typed->inners, m.inners);
}

TEST(Message, EmptyOptionalAndContainersRoundTrip) {
  TestMsg m;  // all defaults
  const auto bytes = encode_message(m);
  const auto typed = message_cast<TestMsg>(decode_message(bytes));
  ASSERT_NE(typed, nullptr);
  EXPECT_FALSE(typed->maybe.has_value());
  EXPECT_TRUE(typed->items.empty());
  EXPECT_TRUE(typed->table.empty());
}

TEST(Message, TypeIdsAreStableAndDistinct) {
  EXPECT_EQ(TestMsg::kTypeId, fnv1a("test.TestMsg"));
  EXPECT_NE(TestMsg::kTypeId, OtherMsg::kTypeId);
}

TEST(Message, MessageCastToWrongTypeIsNull) {
  OtherMsg m;
  m.v = 5;
  const auto back = decode_message(encode_message(m));
  EXPECT_EQ(message_cast<TestMsg>(back), nullptr);
  ASSERT_NE(message_cast<OtherMsg>(back), nullptr);
  EXPECT_EQ(message_cast<OtherMsg>(back)->v, 5);
}

TEST(Message, MessageCastOfNullIsNullAndSharesOwnership) {
  EXPECT_EQ(message_cast<OtherMsg>(MessagePtr{}), nullptr);
  auto original = std::make_shared<OtherMsg>();
  original->v = 9;
  const MessagePtr erased = original;
  const auto typed = message_cast<OtherMsg>(erased);
  EXPECT_EQ(typed.get(), original.get());  // the same object, no copy
  EXPECT_EQ(original.use_count(), 3);
}

TEST(Message, UnknownTypeIdRejected) {
  Writer w;
  w.put_u32(0xFFFFFFFFu);  // no such registration (with overwhelming odds)
  w.put_i64(1);
  EXPECT_THROW(decode_message(w.bytes()), WireError);
}

TEST(Message, TrailingBytesRejected) {
  OtherMsg m;
  auto bytes = encode_message(m);
  bytes.push_back(0);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Message, TruncatedPayloadRejected) {
  TestMsg m = sample();
  auto bytes = encode_message(m);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Message, HugeVectorLengthPrefixRejectedWithoutAllocating) {
  // Craft a TestMsg payload whose items-vector claims 2^40 entries.
  Writer w;
  w.put_u32(TestMsg::kTypeId);
  w.put_bool(false);        // flag
  w.put_i32(0);             // small
  w.put_u64(0);             // big
  w.put_double(0.0);        // ratio
  w.put_string("");         // name
  w.put_i64(0);             // color
  w.put_u64(1ull << 40);    // items length — absurd
  EXPECT_THROW(decode_message(w.bytes()), WireError);
}

// Constructed here and nowhere else, and never encoded.
struct UnsentMsg : MessageBase<UnsentMsg> {
  static constexpr const char* kTypeName = "test.UnsentMsg";
  std::int64_t v = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(v);
  }
};

TEST(Message, DecodersAreRegisteredBeforeMain) {
  EXPECT_TRUE(Registry::instance().contains(UnsentMsg::kTypeId));
  Writer w;
  w.put_u32(UnsentMsg::kTypeId);
  w.put_i64(-7);
  const auto typed = message_cast<UnsentMsg>(decode_message(w.bytes()));
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->v, -7);
  const UnsentMsg never_sent;
  EXPECT_EQ(never_sent.type_id(), UnsentMsg::kTypeId);
}

TEST(Message, RegistryRejectsTypeIdCollisions) {
  const auto fn = [](Reader&) -> MessagePtr { return nullptr; };
  EXPECT_THROW(Registry::instance().add(TestMsg::kTypeId, "test.Impostor", fn), std::exception);
  EXPECT_THROW(Registry::instance().add(kContextFrameId, "test.Impostor", fn), std::exception);
  // Re-registering the same name is benign.
  EXPECT_NO_THROW(Registry::instance().add(TestMsg::kTypeId, TestMsg::kTypeName, fn));
  EXPECT_EQ(message_cast<TestMsg>(decode_message(encode_message(TestMsg{})))->small, 0);
}

// A decoded message goes back to the pool of the thread that releases it.
TEST(MessagePool, EachThreadRecyclesIntoItsOwnPool) {
  const auto bytes = encode_message(OtherMsg{});
  std::promise<const Message*> recycled;
  std::promise<void> main_decoded;
  std::thread worker([&] {
    const Message* first = decode_message(bytes).get();  // released at once
    MessagePtr second = decode_message(bytes);
    EXPECT_EQ(second.get(), first);  // recycled from this thread's pool
    second.reset();                  // and back into it
    recycled.set_value(first);
    main_decoded.get_future().wait();  // keep this thread's pool alive
  });
  const Message* in_worker_pool = recycled.get_future().get();
  const MessagePtr mine = decode_message(bytes);
  EXPECT_NE(mine.get(), in_worker_pool);
  main_decoded.set_value();
  worker.join();
}

// Released during static destruction, after this thread's pool is gone
// (a push into the freed pool is a use-after-free under AddressSanitizer).
TEST(MessagePool, ReleaseDuringStaticDestructionIsSafe) {
  static MessagePtr kept;
  const auto bytes = encode_message(OtherMsg{});
  decode_message(bytes);  // recycled, so this thread's pool has storage
  kept = decode_message(bytes);
  ASSERT_NE(kept, nullptr);
}

TEST(Message, RandomizedRoundTrips) {
  util::Rng rng(777);
  for (int iter = 0; iter < 300; ++iter) {
    TestMsg m;
    m.flag = rng.bernoulli(0.5);
    m.small = static_cast<std::int32_t>(rng.uniform(-1000000, 1000000));
    m.big = rng.next_u64();
    m.ratio = rng.uniform01();
    const auto n = static_cast<std::size_t>(rng.uniform(0, 5));
    for (std::size_t i = 0; i < n; ++i) {
      m.items.push_back(std::string(static_cast<std::size_t>(rng.uniform(0, 20)), 'x'));
      m.inners.push_back(Inner{rng.uniform(-100, 100), "t" + std::to_string(i)});
    }
    if (rng.bernoulli(0.5)) m.maybe = rng.uniform(-5, 5);
    const auto typed = message_cast<TestMsg>(decode_message(encode_message(m)));
    ASSERT_NE(typed, nullptr);
    ASSERT_EQ(typed->items, m.items);
    ASSERT_EQ(typed->inners, m.inners);
    ASSERT_EQ(typed->maybe, m.maybe);
    ASSERT_EQ(typed->big, m.big);
  }
}

}  // namespace
}  // namespace repli::wire

#include "wire/message.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "gcs/fd.hh"
#include "gcs/link.hh"
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

TEST(Message, FramedRoundTripAndPlainFramingRejected) {
  OtherMsg m;
  m.v = -42;
  Writer w;
  encode_framed_into(w, m, WireContext{.trace_id = 7, .parent_span = 9, .lamport = 3});
  const auto typed = message_cast<OtherMsg>(decode_framed(w.span()));
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->v, -42);
  EXPECT_THROW(decode_framed(encode_message(m)), WireError);
}

// The network's hottest types, through the registry decode, over boundary
// and seeded random field values: varint boundaries (one byte, the first
// two-byte value, the widest u32, the widest u64) and payloads empty,
// NUL-bearing, short random and one past 16 KiB.

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// Boundary values, then `random` seeded draws (spread over every width).
std::vector<std::uint64_t> sample_u64(util::Rng& rng, int random) {
  std::vector<std::uint64_t> out = {0, (1u << 7) - 1, 1u << 7, 0xFFFFFFFFull, kU64Max};
  for (int i = 0; i < random; ++i) out.push_back(rng.next_u64() >> rng.uniform(0, 63));
  return out;
}

std::vector<std::uint32_t> sample_u32(util::Rng& rng, int random) {
  std::vector<std::uint32_t> out = {0, (1u << 7) - 1, 1u << 7, 0xFFFFFFFFu};
  for (int i = 0; i < random; ++i) {
    out.push_back(static_cast<std::uint32_t>(rng.next_u64() >> rng.uniform(32, 63)));
  }
  return out;
}

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform(0, 255));
  return s;
}

std::vector<std::string> sample_payloads(util::Rng& rng) {
  return {"", std::string("\0a\0\0b\0", 6),
          random_bytes(rng, static_cast<std::size_t>(rng.uniform(1, 64))),
          random_bytes(rng, 16 * 1024 + 1)};
}

/// Every seq value, cycling channels, with every payload.
std::vector<gcs::LinkData> link_data_samples(int random) {
  util::Rng rng(2024);
  const auto seqs = sample_u64(rng, random);
  const auto channels = sample_u32(rng, random);
  const auto payloads = sample_payloads(rng);
  std::vector<gcs::LinkData> out;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (const auto& payload : payloads) {
      gcs::LinkData m;
      m.channel = channels[i % channels.size()];
      m.seq = seqs[i];
      m.payload = payload;
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<gcs::LinkAck> link_ack_samples(int random) {
  util::Rng rng(2025);
  const auto seqs = sample_u64(rng, random);
  const auto channels = sample_u32(rng, random);
  std::vector<gcs::LinkAck> out;
  for (const std::uint64_t seq : seqs) {
    for (const std::uint32_t channel : channels) {
      gcs::LinkAck m;
      m.channel = channel;
      m.seq = seq;
      out.push_back(m);
    }
  }
  return out;
}

std::vector<gcs::Heartbeat> heartbeat_samples(int random) {
  util::Rng rng(2026);
  std::vector<gcs::Heartbeat> out;
  for (const std::uint64_t count : sample_u64(rng, random)) {
    gcs::Heartbeat m;
    m.count = count;
    out.push_back(m);
  }
  return out;
}

template <typename T>
std::shared_ptr<const T> round_trip(const T& msg) {
  return message_cast<T>(decode_message(encode_message(msg)));
}

TEST(Message, LinkDataRoundTripsBoundaryAndSeededValues) {
  for (const gcs::LinkData& msg : link_data_samples(32)) {
    const auto back = round_trip(msg);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->channel, msg.channel);
    EXPECT_EQ(back->seq, msg.seq);
    EXPECT_EQ(back->payload, msg.payload);
  }
}

TEST(Message, LinkAckRoundTripsBoundaryAndSeededValues) {
  for (const gcs::LinkAck& msg : link_ack_samples(32)) {
    const auto back = round_trip(msg);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->channel, msg.channel);
    EXPECT_EQ(back->seq, msg.seq);
  }
}

TEST(Message, HeartbeatRoundTripsBoundaryAndSeededValues) {
  for (const gcs::Heartbeat& msg : heartbeat_samples(64)) {
    const auto back = round_trip(msg);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->count, msg.count);
  }
}

/// Rejects `msg`'s encoding with a byte appended, and every strict prefix of
/// it: bounds checks must catch each cut, not read past it.
template <typename T>
void expect_malformed_rejected(const T& msg) {
  std::vector<std::uint8_t> bytes = encode_message(msg);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_message(all.first(cut)), WireError) << T::kTypeName << " cut at " << cut;
  }
  bytes.push_back(0);
  EXPECT_THROW(decode_message(bytes), WireError) << T::kTypeName;
}

TEST(Message, EveryStrictPrefixAndTrailingByteRejected) {
  for (const gcs::LinkData& msg : link_data_samples(2)) expect_malformed_rejected(msg);
  for (const gcs::LinkAck& msg : link_ack_samples(4)) expect_malformed_rejected(msg);
  for (const gcs::Heartbeat& msg : heartbeat_samples(8)) expect_malformed_rejected(msg);
}

// Decoded objects are pool-recycled; every field must be assigned by decode
// so a recycled object cannot leak the previous message's state.
TEST(MessagePool, PooledDecodeDoesNotLeakAcrossMessages) {
  gcs::LinkData big;
  big.channel = 5;
  big.seq = 1;
  big.payload = std::string(4096, 'Z');
  const gcs::LinkData empty;
  const Message* recycled = nullptr;
  {
    const auto first = decode_message(encode_message(big));  // returns to the pool
    recycled = first.get();
  }
  const auto second = round_trip(empty);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second.get(), recycled);  // the recycled object, not a fresh one
  EXPECT_EQ(second->channel, 0u);
  EXPECT_EQ(second->seq, 0u);
  EXPECT_TRUE(second->payload.empty());
}

}  // namespace
}  // namespace repli::wire

// Flat-decode oracle tests: the visitor codec is the reference; the flat
// decode_flat() paths must produce field-identical results from the same
// bytes, and reject malformed input the same way.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gcs/fd.hh"
#include "gcs/link.hh"
#include "wire/message.hh"

namespace repli::gcs {
namespace {

/// Restores the process-wide flat-decode switch on scope exit.
class FlatSwitch {
 public:
  explicit FlatSwitch(bool on) : prev_(wire::flat_decode_enabled()) {
    wire::set_flat_decode_enabled(on);
  }
  ~FlatSwitch() { wire::set_flat_decode_enabled(prev_); }

 private:
  bool prev_;
};

std::vector<std::string> sample_payloads() {
  return {
      "",                                   // empty
      "hello",                              // short
      std::string("\x00\xff\x7f\x80", 4),   // binary, embedded NUL
      std::string(10000, 'x'),              // forces multi-byte length varint
  };
}

TEST(FlatWire, LinkDataFlatAndVisitorDecodeAgree) {
  for (const auto& payload : sample_payloads()) {
    LinkData msg;
    msg.channel = 7;
    msg.seq = 123456789;
    msg.payload = payload;
    const auto bytes = wire::encode_message(msg);

    for (const bool flat : {true, false}) {
      FlatSwitch sw(flat);
      const auto decoded = wire::message_cast<LinkData>(wire::decode_message(bytes));
      ASSERT_TRUE(decoded);
      EXPECT_EQ(decoded->channel, msg.channel);
      EXPECT_EQ(decoded->seq, msg.seq);
      EXPECT_EQ(decoded->payload, msg.payload);
    }
  }
}

TEST(FlatWire, LinkAckFlatAndVisitorDecodeAgree) {
  LinkAck msg;
  msg.channel = 3;
  msg.seq = 0xDEADBEEFCAFEull;
  const auto bytes = wire::encode_message(msg);
  for (const bool flat : {true, false}) {
    FlatSwitch sw(flat);
    const auto decoded = wire::message_cast<LinkAck>(wire::decode_message(bytes));
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->channel, msg.channel);
    EXPECT_EQ(decoded->seq, msg.seq);
  }
}

TEST(FlatWire, HeartbeatFlatAndVisitorDecodeAgree) {
  Heartbeat msg;
  msg.count = 42;
  const auto bytes = wire::encode_message(msg);
  for (const bool flat : {true, false}) {
    FlatSwitch sw(flat);
    const auto decoded = wire::message_cast<Heartbeat>(wire::decode_message(bytes));
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->count, msg.count);
  }
}

TEST(FlatWire, FlatDecodeRejectsTruncatedMessage) {
  LinkData msg;
  msg.channel = 1;
  msg.seq = 2;
  msg.payload = "payload";
  const auto bytes = wire::encode_message(msg);
  auto extra = bytes;
  extra.push_back(0);
  for (const bool flat : {true, false}) {
    FlatSwitch sw(flat);
    EXPECT_THROW(wire::decode_message(extra), wire::WireError);
    // Every truncation point must be caught by bounds checks, not read past.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::uint8_t> trunc(bytes.begin(),
                                            bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(wire::decode_message(trunc), wire::WireError) << "cut at " << cut;
    }
  }
}

// Decoded objects are pool-recycled; every field must be assigned by decode
// so a recycled object cannot leak the previous message's state.
TEST(FlatWire, PooledDecodeDoesNotLeakAcrossMessages) {
  LinkData big;
  big.channel = 5;
  big.seq = 1;
  big.payload = std::string(4096, 'Z');
  const auto big_bytes = wire::encode_message(big);

  LinkData empty;
  empty.channel = 0;
  empty.seq = 0;
  empty.payload.clear();
  const auto empty_bytes = wire::encode_message(empty);

  for (const bool flat : {true, false}) {
    FlatSwitch sw(flat);
    { const auto first = wire::decode_message(big_bytes); }  // returns to pool
    const auto second = wire::message_cast<LinkData>(wire::decode_message(empty_bytes));
    ASSERT_TRUE(second);
    EXPECT_EQ(second->channel, 0u);
    EXPECT_EQ(second->seq, 0u);
    EXPECT_TRUE(second->payload.empty());
  }
}

}  // namespace
}  // namespace repli::gcs

// Flat-decode differential tests. Every type with decode_flat() always
// decodes flat; the visitor codec (wire::decode_with_visitor) is the
// reference. Over seeded random and boundary field values, both decoders
// must produce identical fields from the same bytes and reject every strict
// prefix of an encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gcs/fd.hh"
#include "gcs/link.hh"
#include "util/rng.hh"
#include "wire/message.hh"

namespace repli::gcs {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// The production decode: the registry, hence decode_flat().
template <typename T>
std::shared_ptr<const T> decode_flat_path(std::span<const std::uint8_t> bytes) {
  return wire::message_cast<T>(wire::decode_message(bytes));
}

/// The oracle: the same framing, fields read through the visitor.
template <typename T>
std::shared_ptr<const T> decode_visitor_path(std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  if (r.get_u32() != T::kTypeId) throw wire::WireError("oracle: wrong type id");
  auto m = wire::decode_with_visitor<T>(r);
  if (!r.at_end()) throw wire::WireError("oracle: trailing bytes");
  return m;
}

// Varint boundaries: one byte, the first two-byte value, the widest u32,
// the widest u64.
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
const std::vector<std::uint64_t> kBoundaries = {0, (1u << 7) - 1, 1u << 7, 0xFFFFFFFFull,
                                                kU64Max};

/// Boundary values, then `random` seeded draws (spread over every width).
std::vector<std::uint64_t> sample_u64(util::Rng& rng, int random) {
  std::vector<std::uint64_t> out = kBoundaries;
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

/// Empty, embedded NULs, short random, and one past 16 KiB.
std::vector<std::string> sample_payloads(util::Rng& rng) {
  return {"", std::string("\0a\0\0b\0", 6),
          random_bytes(rng, static_cast<std::size_t>(rng.uniform(1, 64))),
          random_bytes(rng, 16 * 1024 + 1)};
}

/// Seeded LinkData samples: every seq value, cycling channels, every payload.
std::vector<LinkData> link_data_samples(int random) {
  util::Rng rng(2024);
  const auto seqs = sample_u64(rng, random);
  const auto channels = sample_u32(rng, random);
  const auto payloads = sample_payloads(rng);
  std::vector<LinkData> out;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (const auto& payload : payloads) {
      LinkData m;
      m.channel = channels[i % channels.size()];
      m.seq = seqs[i];
      m.payload = payload;
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<LinkAck> link_ack_samples(int random) {
  util::Rng rng(2025);
  const auto seqs = sample_u64(rng, random);
  const auto channels = sample_u32(rng, random);
  std::vector<LinkAck> out;
  for (const std::uint64_t seq : seqs) {
    for (const std::uint32_t channel : channels) {
      LinkAck m;
      m.channel = channel;
      m.seq = seq;
      out.push_back(m);
    }
  }
  return out;
}

std::vector<Heartbeat> heartbeat_samples(int random) {
  util::Rng rng(2026);
  std::vector<Heartbeat> out;
  for (const std::uint64_t count : sample_u64(rng, random)) {
    Heartbeat m;
    m.count = count;
    out.push_back(m);
  }
  return out;
}

TEST(FlatWire, LinkDataFlatAndVisitorDecodeAgree) {
  for (const LinkData& msg : link_data_samples(32)) {
    const Bytes bytes = wire::encode_message(msg);
    const auto flat = decode_flat_path<LinkData>(bytes);
    const auto oracle = decode_visitor_path<LinkData>(bytes);
    ASSERT_TRUE(flat);
    EXPECT_EQ(flat->channel, msg.channel);
    EXPECT_EQ(flat->seq, msg.seq);
    EXPECT_EQ(flat->payload, msg.payload);
    EXPECT_EQ(oracle->channel, flat->channel);
    EXPECT_EQ(oracle->seq, flat->seq);
    EXPECT_EQ(oracle->payload, flat->payload);
  }
}

TEST(FlatWire, LinkAckFlatAndVisitorDecodeAgree) {
  for (const LinkAck& msg : link_ack_samples(32)) {
    const Bytes bytes = wire::encode_message(msg);
    const auto flat = decode_flat_path<LinkAck>(bytes);
    const auto oracle = decode_visitor_path<LinkAck>(bytes);
    ASSERT_TRUE(flat);
    EXPECT_EQ(flat->channel, msg.channel);
    EXPECT_EQ(flat->seq, msg.seq);
    EXPECT_EQ(oracle->channel, flat->channel);
    EXPECT_EQ(oracle->seq, flat->seq);
  }
}

TEST(FlatWire, HeartbeatFlatAndVisitorDecodeAgree) {
  for (const Heartbeat& msg : heartbeat_samples(64)) {
    const Bytes bytes = wire::encode_message(msg);
    const auto flat = decode_flat_path<Heartbeat>(bytes);
    const auto oracle = decode_visitor_path<Heartbeat>(bytes);
    ASSERT_TRUE(flat);
    EXPECT_EQ(flat->count, msg.count);
    EXPECT_EQ(oracle->count, flat->count);
  }
}

/// Both decoders reject `msg`'s encoding with a byte appended, and every
/// strict prefix of it: bounds checks must catch each cut, not read past it.
template <typename T>
void expect_malformed_rejected(const T& msg) {
  Bytes bytes = wire::encode_message(msg);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_flat_path<T>(all.first(cut)), wire::WireError)
        << T::kTypeName << " cut at " << cut;
    EXPECT_THROW(decode_visitor_path<T>(all.first(cut)), wire::WireError)
        << T::kTypeName << " cut at " << cut;
  }
  bytes.push_back(0);
  EXPECT_THROW(decode_flat_path<T>(bytes), wire::WireError) << T::kTypeName;
  EXPECT_THROW(decode_visitor_path<T>(bytes), wire::WireError) << T::kTypeName;
}

TEST(FlatWire, FlatDecodeRejectsTruncatedMessage) {
  for (const LinkData& msg : link_data_samples(2)) expect_malformed_rejected(msg);
  for (const LinkAck& msg : link_ack_samples(4)) expect_malformed_rejected(msg);
  for (const Heartbeat& msg : heartbeat_samples(8)) expect_malformed_rejected(msg);
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

  { const auto first = wire::decode_message(big_bytes); }  // returns to pool
  const auto second = decode_flat_path<LinkData>(empty_bytes);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->channel, 0u);
  EXPECT_EQ(second->seq, 0u);
  EXPECT_TRUE(second->payload.empty());
}

}  // namespace
}  // namespace repli::gcs

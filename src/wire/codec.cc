#include "wire/codec.hh"

#include <bit>
#include <cstring>
#include <limits>

namespace repli::wire {

void Writer::put_u64(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::put_i64(std::int64_t v) {
  // Zig-zag: small magnitudes (positive or negative) encode small.
  const auto u = (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
  put_u64(u);
}

void Writer::put_double(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  // Fixed 8-byte little-endian: doubles rarely benefit from varints.
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void Writer::put_string(std::string_view s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t Reader::next_byte() {
  if (pos_ >= data_.size()) throw WireError("Reader: truncated input");
  return data_[pos_++];
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift > 63) throw WireError("Reader: varint overflow");
    const std::uint8_t b = next_byte();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t Reader::get_i64() {
  const std::uint64_t u = get_u64();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::uint32_t Reader::get_u32() {
  const std::uint64_t v = get_u64();
  if (v > std::numeric_limits<std::uint32_t>::max()) throw WireError("Reader: u32 overflow");
  return static_cast<std::uint32_t>(v);
}

std::int32_t Reader::get_i32() {
  const std::int64_t v = get_i64();
  if (v > std::numeric_limits<std::int32_t>::max() || v < std::numeric_limits<std::int32_t>::min())
    throw WireError("Reader: i32 overflow");
  return static_cast<std::int32_t>(v);
}

bool Reader::get_bool() {
  const std::uint64_t v = get_u64();
  if (v > 1) throw WireError("Reader: bad bool");
  return v == 1;
}

double Reader::get_double() {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(next_byte()) << (8 * i);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > remaining()) throw WireError("Reader: truncated string");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

void Reader::get_string_into(std::string& out) {
  const std::uint64_t n = get_u64();
  if (n > remaining()) throw WireError("Reader: truncated string");
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
}

}  // namespace repli::wire

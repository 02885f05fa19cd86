// Byte-level encoding primitives.
//
// Integers are encoded as LEB128-style varints (zig-zag for signed values);
// strings and containers carry a varint length prefix. `Reader` is strictly
// bounds-checked and throws `WireError` on malformed input, so decoding
// untrusted bytes can never read out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace repli::wire {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);  // zig-zag
  void put_u32(std::uint32_t v) { put_u64(v); }
  void put_i32(std::int32_t v) { put_i64(v); }
  void put_bool(bool v) { put_u64(v ? 1 : 0); }
  void put_double(double v);
  void put_string(std::string_view s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::span<const std::uint8_t> span() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  /// Rewinds to empty, keeping the buffer's capacity — a Writer reused as
  /// scratch (clear + encode per send) stops allocating once warmed up.
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : data_(bytes) {}

  std::uint64_t get_u64();
  std::int64_t get_i64();
  std::uint32_t get_u32();
  std::int32_t get_i32();
  bool get_bool();
  double get_double();
  std::string get_string();
  /// Like get_string but assigns into `out`, reusing its capacity — the
  /// decode path for pooled messages whose string fields keep their buffers.
  void get_string_into(std::string& out);

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::uint8_t next_byte();
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace repli::wire

// Field-visitor (de)serialization.
//
// A message type defines a single member
//     template <class Ar> void fields(Ar& ar) { ar(a); ar(b); ... }
// and gets encode and decode from that one definition (byte accounting comes from
// the encoded frames the network actually carries).
// Supported field types: bool, (u)int32/64, double, std::string, Blob,
// enums, std::vector<T>, std::optional<T>, std::pair<A,B>, std::map<K,V>,
// and any nested struct that itself defines fields().
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "wire/codec.hh"
#include "wire/pool.hh"

namespace repli::wire {

/// An encoded message held once and shared by everyone who sends it: the
/// destinations of a fan-out, and each destination's retransmission state.
/// Immutable once built. As a field it is encoded exactly as a std::string
/// (so the bytes on the wire do not depend on which of the two a message
/// declares); decoding takes its string from a per-thread pool.
using Blob = std::shared_ptr<const std::string>;

class Encoder;
class Decoder;

template <typename T, typename Ar>
concept HasFields = requires(T t, Ar ar) { t.fields(ar); };

class Encoder {
 public:
  explicit Encoder(Writer& w) : w_(w) {}

  void operator()(bool v) { w_.put_bool(v); }
  void operator()(std::uint32_t v) { w_.put_u32(v); }
  void operator()(std::int32_t v) { w_.put_i32(v); }
  void operator()(std::uint64_t v) { w_.put_u64(v); }
  void operator()(std::int64_t v) { w_.put_i64(v); }
  void operator()(double v) { w_.put_double(v); }
  void operator()(const std::string& v) { w_.put_string(v); }
  void operator()(const Blob& v) { w_.put_string(v ? std::string_view(*v) : std::string_view()); }

  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    w_.put_i64(static_cast<std::int64_t>(v));
  }

  template <typename T>
  void operator()(const std::vector<T>& v) {
    w_.put_u64(v.size());
    for (const auto& e : v) (*this)(e);
  }

  template <typename T>
  void operator()(const std::optional<T>& v) {
    w_.put_bool(v.has_value());
    if (v.has_value()) (*this)(*v);
  }

  template <typename A, typename B>
  void operator()(const std::pair<A, B>& v) {
    (*this)(v.first);
    (*this)(v.second);
  }

  template <typename K, typename V>
  void operator()(const std::map<K, V>& v) {
    w_.put_u64(v.size());
    for (const auto& [k, val] : v) {
      (*this)(k);
      (*this)(val);
    }
  }

  template <typename T>
    requires HasFields<T, Encoder>
  void operator()(const T& v) {
    // fields() is written non-const so one definition serves encode and
    // decode; encoding only reads, so this cast is safe by construction.
    const_cast<T&>(v).fields(*this);
  }

 private:
  Writer& w_;
};

class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  void operator()(bool& v) { v = r_.get_bool(); }
  void operator()(std::uint32_t& v) { v = r_.get_u32(); }
  void operator()(std::int32_t& v) { v = r_.get_i32(); }
  void operator()(std::uint64_t& v) { v = r_.get_u64(); }
  void operator()(std::int64_t& v) { v = r_.get_i64(); }
  void operator()(double& v) { v = r_.get_double(); }
  // Assigns in place: a recycled message's string fields keep their buffers.
  void operator()(std::string& v) { r_.get_string_into(v); }
  // A recycled pooled string keeps its buffer, so this allocates only to warm up.
  void operator()(Blob& v) {
    std::shared_ptr<std::string> s = MessagePool<std::string>::acquire();
    r_.get_string_into(*s);
    v = std::move(s);
  }

  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    v = static_cast<E>(r_.get_i64());
  }

  template <typename T>
  void operator()(std::vector<T>& v) {
    const std::uint64_t n = r_.get_u64();
    // Each element costs at least one byte on the wire; reject sizes that
    // cannot possibly be satisfied so malformed input cannot OOM us.
    if (n > r_.remaining()) throw WireError("Decoder: vector length exceeds input");
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      T e{};
      (*this)(e);
      v.push_back(std::move(e));
    }
  }

  template <typename T>
  void operator()(std::optional<T>& v) {
    if (r_.get_bool()) {
      T e{};
      (*this)(e);
      v = std::move(e);
    } else {
      v.reset();
    }
  }

  template <typename A, typename B>
  void operator()(std::pair<A, B>& v) {
    (*this)(v.first);
    (*this)(v.second);
  }

  template <typename K, typename V>
  void operator()(std::map<K, V>& v) {
    const std::uint64_t n = r_.get_u64();
    if (n > r_.remaining()) throw WireError("Decoder: map length exceeds input");
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      (*this)(k);
      V val{};
      (*this)(val);
      v.emplace(std::move(k), std::move(val));
    }
  }

  template <typename T>
    requires HasFields<T, Decoder>
  void operator()(T& v) {
    v.fields(*this);
  }

 private:
  Reader& r_;
};

}  // namespace repli::wire

// Polymorphic message base plus a decode registry.
//
// The simulated network carries real bytes: every send encodes the message
// and every delivery decodes a fresh object, so sender/receiver aliasing
// bugs cannot hide and byte accounting in benches is honest.
//
// Defining a message:
//     struct Heartbeat : wire::MessageBase<Heartbeat> {
//       static constexpr const char* kTypeName = "gcs.Heartbeat";
//       std::int64_t epoch = 0;
//       template <class Ar> void fields(Ar& ar) { ar(epoch); }
//     };
// Each message type registers its decoder during static initialization, so
// the registry is immutable once main() starts and any thread may decode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "wire/codec.hh"
#include "wire/pool.hh"
#include "wire/visit.hh"

namespace repli::wire {

using TypeId = std::uint32_t;

constexpr TypeId fnv1a(std::string_view s) {
  std::uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

class Message {
 public:
  virtual ~Message() = default;
  virtual TypeId type_id() const = 0;
  virtual std::string_view type_name() const = 0;
  virtual void encode_into(Writer& w) const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

class Registry {
 public:
  using DecodeFn = std::function<MessagePtr(Reader&)>;

  static Registry& instance();

  /// Registers a decoder; throws on TypeId collision between distinct names.
  /// Every MessageBase type calls this during static initialization.
  void add(TypeId id, std::string_view name, DecodeFn fn);
  bool contains(TypeId id) const { return decoders_.contains(id); }
  MessagePtr decode(TypeId id, Reader& r) const;

 private:
  struct Entry {
    std::string name;
    DecodeFn fn;
  };
  std::unordered_map<TypeId, Entry> decoders_;
};

template <typename Derived>
class MessageBase : public Message {
 public:
  static constexpr TypeId kTypeId = fnv1a(Derived::kTypeName);

  TypeId type_id() const final {
    (void)&registered_;  // odr-use: instantiates the registration below
    return kTypeId;
  }
  std::string_view type_name() const final { return Derived::kTypeName; }

  void encode_into(Writer& w) const final {
    Encoder enc(w);
    const_cast<Derived&>(static_cast<const Derived&>(*this)).fields(enc);
  }

 private:
  /// Decoded objects come from MessagePool (zero steady-state allocation);
  /// every field is assigned by decode, so recycling cannot leak state.
  static MessagePtr decode(Reader& r) {
    std::shared_ptr<Derived> m = MessagePool<Derived>::acquire();
    Decoder dec(r);
    m->fields(dec);
    return m;
  }

  // Registers Derived's decoder during static initialization.
  static inline const bool registered_ =
      (Registry::instance().add(kTypeId, Derived::kTypeName, &decode), true);
};

/// Frames `msg` as [type id][payload] bytes.
std::vector<std::uint8_t> encode_message(const Message& msg);

/// As encode_message, but appends into `w` — pass a cleared scratch Writer
/// to reuse its capacity across encodes (the steady-state send path).
void encode_message_into(Writer& w, const Message& msg);

/// Inverse of encode_message. Throws WireError on unknown type, malformed
/// payload, or trailing bytes.
MessagePtr decode_message(std::span<const std::uint8_t> bytes);

/// Causal metadata carried on the wire alongside every framed message: the
/// trace id and parent span of the sending context plus the sender's
/// Lamport clock.
struct WireContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::int64_t lamport = 0;
};

/// Sentinel type id marking a context-framed message; reserved (Registry
/// rejects user messages hashing to it).
constexpr TypeId kContextFrameId = fnv1a("wire.TraceContext");

/// Frames `msg` with its trace context, appending to `w`:
/// [kContextFrameId][trace id][parent span][lamport][type id][payload].
void encode_framed_into(Writer& w, const Message& msg, const WireContext& ctx);

/// Inverse of encode_framed_into, returning the message only (the network
/// keeps the context it framed). Throws WireError on bytes without the
/// context frame, an unknown type, a malformed payload or trailing bytes.
MessagePtr decode_framed(std::span<const std::uint8_t> bytes);

/// Encodes a message into a string blob suitable for embedding as a field
/// of another message (used by broadcast layers that carry opaque payloads).
std::string to_blob(const Message& msg);

/// As to_blob, into `out`: a string reused across calls keeps its capacity.
void assign_blob(std::string& out, const Message& msg);

/// to_blob into a shared Blob (see visit.hh). Its string comes from a
/// per-thread pool and keeps its capacity when recycled, so a warmed-up
/// sender allocates nothing.
Blob share_blob(const Message& msg);

/// A pooled, shared copy of bytes already encoded by to_blob (a relay
/// forwards what it received without decoding and re-encoding it).
Blob share_bytes(std::string_view bytes);

/// Inverse of to_blob. Decodes straight from the blob's bytes (no copy).
MessagePtr from_blob(std::string_view blob);

/// Convenience downcast; returns nullptr when the runtime type differs.
/// Every target is a concrete MessageBase type, so comparing the type id
/// (unique per name: the registry rejects collisions) decides the cast
/// without RTTI — components probe several casts per delivered message.
template <typename T>
std::shared_ptr<const T> message_cast(const MessagePtr& msg) {
  static_assert(std::is_base_of_v<MessageBase<T>, T>,
                "message_cast: the target must be a concrete message type");
  if (msg == nullptr || msg->type_id() != T::kTypeId) return nullptr;
  return std::static_pointer_cast<const T>(msg);
}

}  // namespace repli::wire

#include "wire/message.hh"

#include "obs/profile.hh"
#include "util/assert.hh"

namespace repli::wire {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(TypeId id, std::string_view name, DecodeFn fn) {
  if (id == kContextFrameId && name != "wire.TraceContext") {
    util::fail("Registry: type name '" + std::string(name) +
               "' collides with the reserved context frame id");
  }
  const auto it = decoders_.find(id);
  if (it != decoders_.end()) {
    if (it->second.name != name) {
      util::fail("Registry: TypeId hash collision between '" + it->second.name + "' and '" +
                 std::string(name) + "'");
    }
    return;  // benign re-registration (e.g. across translation units)
  }
  decoders_.emplace(id, Entry{std::string(name), std::move(fn)});
}

MessagePtr Registry::decode(TypeId id, Reader& r) const {
  const auto it = decoders_.find(id);
  if (it == decoders_.end()) throw WireError("Registry: unknown message type id");
  return it->second.fn(r);
}

namespace {

// Scratch writer for the blob encoders: capacity persists across calls, so
// envelope building stops allocating once warmed up. One per thread, so runs
// on different threads never share it.
Writer& blob_scratch() {
  thread_local Writer w;
  return w;
}

}  // namespace

void encode_message_into(Writer& w, const Message& msg) {
  obs::ProfScope prof(obs::CostCenter::WireEncode);
  w.put_u32(msg.type_id());
  msg.encode_into(w);
}

std::vector<std::uint8_t> encode_message(const Message& msg) {
  // Encode into the scratch writer, then copy once into a vector of the
  // exact size: one allocation, where growing a fresh vector takes several.
  obs::ProfScope prof(obs::CostCenter::WireEncode);
  Writer& w = blob_scratch();
  w.clear();
  w.put_u32(msg.type_id());
  msg.encode_into(w);
  return {w.span().begin(), w.span().end()};
}

std::string to_blob(const Message& msg) {
  std::string out;
  assign_blob(out, msg);
  return out;
}

void assign_blob(std::string& out, const Message& msg) {
  Writer& w = blob_scratch();
  w.clear();
  encode_message_into(w, msg);
  out.assign(reinterpret_cast<const char*>(w.span().data()), w.size());
}

Blob share_blob(const Message& msg) {
  std::shared_ptr<std::string> out = MessagePool<std::string>::acquire();
  assign_blob(*out, msg);
  return out;
}

Blob share_bytes(std::string_view bytes) {
  std::shared_ptr<std::string> out = MessagePool<std::string>::acquire();
  out->assign(bytes);
  return out;
}

MessagePtr from_blob(std::string_view blob) {
  return decode_message(
      {reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()});
}

MessagePtr decode_message(std::span<const std::uint8_t> bytes) {
  obs::ProfScope prof(obs::CostCenter::WireDecode);
  Reader r(bytes);
  const TypeId id = r.get_u32();
  MessagePtr msg = Registry::instance().decode(id, r);
  if (!r.at_end()) throw WireError("decode_message: trailing bytes");
  return msg;
}

void encode_framed_into(Writer& w, const Message& msg, const WireContext& ctx) {
  obs::ProfScope prof(obs::CostCenter::WireEncode);
  w.put_u32(kContextFrameId);
  w.put_u64(ctx.trace_id);
  w.put_u64(ctx.parent_span);
  w.put_i64(ctx.lamport);
  w.put_u32(msg.type_id());
  msg.encode_into(w);
}

MessagePtr decode_framed(std::span<const std::uint8_t> bytes) {
  obs::ProfScope prof(obs::CostCenter::WireDecode);
  Reader r(bytes);
  if (r.get_u32() != kContextFrameId) throw WireError("decode_framed: no context frame");
  r.get_u64();  // trace id
  r.get_u64();  // parent span
  r.get_i64();  // lamport
  const TypeId id = r.get_u32();
  MessagePtr msg = Registry::instance().decode(id, r);
  if (!r.at_end()) throw WireError("decode_framed: trailing bytes");
  return msg;
}

}  // namespace repli::wire

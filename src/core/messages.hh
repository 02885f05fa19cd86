// Client-facing wire messages shared by every replication technique.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/exec.hh"
#include "wire/message.hh"

namespace repli::core {

/// A transaction: one or more operations executed atomically. The paper's
/// single-operation model (Sections 3-4) is the size-1 case; Section 5's
/// protocols process longer vectors operation by operation.
using Transaction = std::vector<db::Operation>;

struct ClientRequest : wire::MessageBase<ClientRequest> {
  static constexpr const char* kTypeName = "core.ClientRequest";
  std::string request_id;
  std::int32_t client = 0;
  std::vector<db::Operation> ops;
  template <class Ar>
  void fields(Ar& ar) {
    ar(request_id);
    ar(client);
    ar(ops);
  }
  bool read_only() const {
    for (const auto& op : ops) {
      if (!op.read_only()) return false;
    }
    return true;
  }
};

/// A delivered request, shared with the message pool that decoded it: work
/// that outlives a delivery (a CPU task, a timer, a retry table) holds this
/// pointer rather than a copy of the request and its operations.
using RequestPtr = std::shared_ptr<const ClientRequest>;

struct ClientReply : wire::MessageBase<ClientReply> {
  static constexpr const char* kTypeName = "core.ClientReply";
  std::string request_id;
  bool ok = false;
  std::string result;  // result of the last operation, or error text
  template <class Ar>
  void fields(Ar& ar) {
    ar(request_id);
    ar(ok);
    ar(result);
  }
};

/// "I am not the node you should be talking to" — used by primary-based
/// techniques so a client with a stale primary hint can re-route.
struct Redirect : wire::MessageBase<Redirect> {
  static constexpr const char* kTypeName = "core.Redirect";
  std::string request_id;
  std::int32_t try_instead = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(request_id);
    ar(try_instead);
  }
};

}  // namespace repli::core

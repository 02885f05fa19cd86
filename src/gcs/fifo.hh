// FIFO reliable point-to-point channel: reliable delivery (via ARQ) plus
// per-sender in-order delivery. This is the "FIFO channel" primary-backup
// replication is described over in the paper (Section 3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "gcs/link.hh"

namespace repli::gcs {

struct FifoData : wire::MessageBase<FifoData> {
  static constexpr const char* kTypeName = "gcs.FifoData";
  std::uint32_t channel = 0;
  std::uint64_t seq = 0;  // per (sender, receiver) stream position
  std::string payload;
  template <class Ar>
  void fields(Ar& ar) {
    ar(channel);
    ar(seq);
    ar(payload);
  }
};

class FifoChannel : public Component {
 public:
  using DeliverFn = std::function<void(sim::NodeId from, wire::MessagePtr msg)>;

  /// `pack` is the packing policy of the underlying link (see ReliableLink).
  FifoChannel(sim::Process& host, std::uint32_t channel, sim::BatchPolicy pack = {});

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Sends `msg` to `to`; delivered reliably, in send order per sender.
  void send_fifo(sim::NodeId to, const wire::Message& msg);

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

 private:
  void pump(sim::NodeId from);

  sim::Process& host_;
  ReliableLink link_;
  DeliverFn deliver_;
  std::map<sim::NodeId, std::uint64_t> next_out_;  // per destination
  struct Stashed {
    std::string payload;
    std::uint64_t trace = 0;  // causal trace the message arrived under
  };
  struct Incoming {
    std::uint64_t next = 1;
    std::map<std::uint64_t, Stashed> buffer;  // out-of-order stash
  };
  std::map<sim::NodeId, Incoming> in_;
};

}  // namespace repli::gcs

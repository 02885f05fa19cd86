// Reliable broadcast by flooding (R-deliver despite sender crash mid-send):
// the first time a process receives a broadcast it relays it to every other
// group member before delivering, so if any correct process delivers, all
// correct processes eventually deliver. Point-to-point loss is absorbed by
// an internal ReliableLink.
//
// A broadcast is encoded once: the origin encodes its FloodData into one
// shared wire::Blob that every destination's link entry refers to, and a
// relay forwards the bytes it received (the encoding is canonical, so they
// equal a fresh encoding) instead of decoding and encoding them again.
//
// Each origin numbers its broadcasts densely (1, 2, ...), so duplicate
// suppression keeps, per origin (a table indexed by node id), a watermark
// below which every broadcast has been accepted, plus the few broadcasts
// accepted out of order above it; those fold into the watermark as the
// gaps fill.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "gcs/group.hh"
#include "gcs/link.hh"

namespace repli::gcs {

struct FloodData : wire::MessageBase<FloodData> {
  static constexpr const char* kTypeName = "gcs.FloodData";
  std::uint32_t channel = 0;
  std::int32_t origin = 0;
  std::uint64_t seq = 0;
  std::string payload;
  template <class Ar>
  void fields(Ar& ar) {
    ar(channel);
    ar(origin);
    ar(seq);
    ar(payload);
  }
};

class Flooder : public Component {
 public:
  /// Delivery callback: `origin` is the broadcasting process.
  using DeliverFn = std::function<void(sim::NodeId origin, wire::MessagePtr msg)>;

  /// `pack` is the packing policy of the underlying link (see ReliableLink).
  Flooder(sim::Process& host, Group group, std::uint32_t channel, sim::BatchPolicy pack = {});

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Reliably broadcasts `msg` to the whole group (including self).
  void rbcast(const wire::Message& msg);

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  /// Broadcasts from `origin` accepted ahead of a gap (0 once the gaps fill).
  std::size_t out_of_order(sim::NodeId origin) const;

 private:
  struct SeqWindow {
    std::uint64_t next = 1;          // every seq below has been accepted
    std::set<std::uint64_t> ahead;   // accepted seqs above `next`
  };

  /// Sends `blob` (the encoding of `data`) to every member but this one
  /// and the origin, then delivers `data` here.
  void relay_and_deliver(const FloodData& data, const wire::Blob& blob);
  /// Marks (origin, seq) accepted; false when it already was.
  bool first_time(std::int32_t origin, std::uint64_t seq);

  sim::Process& host_;
  Group group_;
  std::uint32_t channel_;
  ReliableLink link_;
  DeliverFn deliver_;
  std::uint64_t next_seq_ = 1;
  // This node's next broadcast, reused so its payload string keeps its
  // capacity. Nothing reads it once deliver_ runs, so a broadcast made
  // from inside deliver_ may overwrite it.
  FloodData outgoing_;
  std::vector<SeqWindow> seen_;  // dedup per origin, indexed by node id
};

}  // namespace repli::gcs

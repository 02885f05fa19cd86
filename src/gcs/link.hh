// Reliable point-to-point links (ARQ) over the lossy simulated network:
// sequence numbers, retransmission until acknowledged, and duplicate
// suppression at the receiver. This is the "quasi-reliable channel"
// abstraction the distributed-systems protocols assume.
//
// Every send goes through one path, send_blob: the payload is a shared,
// immutable wire::Blob, encoded once by the sender. A fan-out hands the
// same Blob to every destination, and each destination's pending entry
// refers to it rather than holding a copy, so a hop costs no allocation
// per destination.
//
// A link numbers its LinkData from one counter shared by all destinations,
// so the sequence numbers one receiver sees from a sender have gaps (the
// numbers sent to other destinations). The receiver therefore cannot keep a
// watermark; it keeps one bit per sequence number of the sender's link.
// The sender keeps its unacknowledged LinkData in a ring indexed by
// `seq - base`: an ack clears its entry in place, the acknowledged prefix
// is released, and retransmission walks the ring in ascending seq order.
//
// An unacknowledged entry is retransmitted on each of its first
// kLinkSteadyRetries ticks, then only on ticks that are powers of two
// (4, 8, 16, 32, 64), and given up on after kLinkMaxRetries ticks (the peer
// is then assumed crashed; crash-stop processes never return, so this only
// truncates pointless traffic and lets the simulation quiesce). A peer that
// has not acked for kLinkSteadyRetries ticks has been silent for longer than
// the failure detector's kFdTimeout plus one RTO. Inside the fault envelope
// (partitions shorter than kFdTimeout) every retransmission that can reach
// a live peer therefore leaves at the same tick as under a fixed RTO, while
// a message to a dead peer costs 9 transmissions rather than one per tick.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gcs/component.hh"
#include "gcs/fd.hh"
#include "sim/batcher.hh"
#include "util/seq_ring.hh"

namespace repli::gcs {

struct LinkData : wire::MessageBase<LinkData> {
  static constexpr const char* kTypeName = "gcs.LinkData";
  std::uint32_t channel = 0;
  std::uint64_t seq = 0;
  std::string payload;
  template <class Ar>
  void fields(Ar& ar) {
    ar(channel);
    ar(seq);
    ar(payload);
  }
};

struct LinkAck : wire::MessageBase<LinkAck> {
  static constexpr const char* kTypeName = "gcs.LinkAck";
  std::uint32_t channel = 0;
  std::uint64_t seq = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(channel);
    ar(seq);
  }
};

/// Several application payloads packed into one LinkData: one sequence
/// number, one ack, one retransmission unit for the whole pack. The
/// receiver unpacks and delivers the payloads in send order.
struct LinkPack : wire::MessageBase<LinkPack> {
  static constexpr const char* kTypeName = "gcs.LinkPack";
  std::vector<wire::Blob> payloads;
  template <class Ar>
  void fields(Ar& ar) {
    ar(payloads);
  }
};

// Retransmission timeout, and the ticks before giving up.
inline constexpr sim::Time kLinkRto = 5 * sim::kMsec;
inline constexpr int kLinkMaxRetries = 100;
// Ticks on which an entry is retransmitted unconditionally: they cover a
// silence of kFdTimeout plus one RTO.
inline constexpr int kLinkSteadyRetries = static_cast<int>(kFdTimeout / kLinkRto) + 1;

class ReliableLink : public Component {
 public:
  /// `bytes` is the payload as its sender encoded it (wire::to_blob of
  /// `msg`), valid for the duration of the call: a relay forwards it as is.
  using DeliverFn =
      std::function<void(sim::NodeId from, wire::MessagePtr msg, std::string_view bytes)>;

  /// `channel` separates independent link instances on the same process.
  /// Send-side packing: with `pack` batching, payloads to the same
  /// destination are gathered per the policy and shipped as one LinkPack
  /// (one LinkData + one LinkAck for the whole pack). The default keeps
  /// every send its own LinkData — the byte-identical unbatched path.
  ReliableLink(sim::Process& host, std::uint32_t channel, sim::BatchPolicy pack = {});

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Sends `msg` to `to`; retransmits until acknowledged.
  void send_reliable(sim::NodeId to, const wire::Message& msg);
  /// As send_reliable, for a message already encoded (wire::share_blob, or
  /// bytes received for relaying). Every send takes this path; a fan-out
  /// passes the same Blob for each destination.
  void send_blob(sim::NodeId to, wire::Blob payload);

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  /// LinkData sent and neither acknowledged nor given up on.
  std::size_t unacked() const { return unacked_; }

 private:
  struct Pending {
    sim::NodeId to = 0;
    wire::Blob payload;  // null once acknowledged or given up on
    int retries = 0;
  };

  void transmit(std::uint64_t seq, const Pending& p);
  /// Clears an entry in place (acknowledged, or given up on).
  void settle(Pending& p);
  /// Releases the settled entries at the front of the outbox.
  void release_settled();
  void arm_timer();
  void on_tick();
  void send_now(sim::NodeId to, wire::Blob payload);
  void flush_pack(sim::NodeId to, std::vector<wire::Blob> payloads);

  sim::Process& host_;
  std::uint32_t channel_;
  sim::BatchPolicy pack_policy_;
  DeliverFn deliver_;
  // Sent LinkData from the oldest unsettled one up to the newest, by seq;
  // end() is the next seq to send.
  util::SeqRing<Pending> outbox_{1};
  std::size_t unacked_ = 0;
  // Dedup per sender, indexed by node id: bit `seq` is set once that
  // LinkData was delivered.
  std::vector<std::vector<bool>> seen_;
  sim::Process::TimerId timer_ = sim::Process::kNoTimer;
  std::map<sim::NodeId, sim::Batcher<wire::Blob>> pack_;  // per destination
};

}  // namespace repli::gcs

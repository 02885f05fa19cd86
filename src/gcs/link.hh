// Reliable point-to-point links (ARQ) over the lossy simulated network:
// sequence numbers, retransmission until acknowledged, and duplicate
// suppression at the receiver. This is the "quasi-reliable channel"
// abstraction the distributed-systems protocols assume.
//
// A link numbers its LinkData from one counter shared by all destinations,
// so the sequence numbers one receiver sees from a sender have gaps (the
// numbers sent to other destinations). The receiver therefore cannot keep a
// watermark; it keeps one bit per sequence number of the sender's link.
//
// Retransmission stops after kLinkMaxRetries (the peer is then assumed
// crashed; crash-stop processes never return, so this only truncates
// pointless traffic and lets the simulation quiesce).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gcs/component.hh"
#include "sim/batcher.hh"

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
  std::vector<std::string> payloads;
  template <class Ar>
  void fields(Ar& ar) {
    ar(payloads);
  }
};

// Retransmission timeout, and the retransmissions before giving up.
inline constexpr sim::Time kLinkRto = 5 * sim::kMsec;
inline constexpr int kLinkMaxRetries = 100;

class ReliableLink : public Component {
 public:
  using DeliverFn = std::function<void(sim::NodeId from, wire::MessagePtr msg)>;

  /// `channel` separates independent link instances on the same process.
  /// Send-side packing: with `pack` batching, payloads to the same
  /// destination are gathered per the policy and shipped as one LinkPack
  /// (one LinkData + one LinkAck for the whole pack). The default keeps
  /// every send its own LinkData — the byte-identical unbatched path.
  ReliableLink(sim::Process& host, std::uint32_t channel, sim::BatchPolicy pack = {});

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Sends `msg` to `to`; retransmits until acknowledged.
  void send_reliable(sim::NodeId to, const wire::Message& msg);
  /// As send_reliable, for a message already encoded by wire::to_blob —
  /// a fan-out encodes once for all its destinations.
  void send_blob(sim::NodeId to, std::string payload);

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  std::size_t unacked() const { return outbox_.size(); }

 private:
  struct Pending {
    sim::NodeId to;
    std::string payload;
    int retries = 0;
  };

  void transmit(std::uint64_t seq, const Pending& p);
  void arm_timer();
  void on_tick();
  void send_now(sim::NodeId to, std::string payload);
  void flush_pack(sim::NodeId to, std::vector<std::string> payloads);

  sim::Process& host_;
  std::uint32_t channel_;
  sim::BatchPolicy pack_policy_;
  DeliverFn deliver_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Pending> outbox_;
  // Dedup per sender: bit `seq` is set once that LinkData was delivered.
  std::map<sim::NodeId, std::vector<bool>> seen_;
  sim::Process::TimerId timer_ = sim::Process::kNoTimer;
  std::map<sim::NodeId, sim::Batcher<std::string>> pack_;  // per destination
};

}  // namespace repli::gcs

// Atomic Broadcast (total-order broadcast) interface, with the common wire
// records shared by its implementations. Guarantees: if one group member
// delivers m, all correct members deliver m (agreement), and any two members
// deliver common messages in the same order (total order).
//
// The base class also owns the submission-side batcher: with a batching
// policy (max > 1), concurrently-submitted payloads are coalesced into one
// AbEnvelope that goes through the ordering protocol as a single
// totally-ordered message, amortizing the ordering round over the whole
// batch. Delivery unpacks the envelope, so consumers always see individual
// payloads in order. With max <= 1 (the default) abcast() forwards
// straight to the implementation — the byte-identical unbatched path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gcs/component.hh"
#include "sim/batcher.hh"

namespace repli::gcs {

/// Application payload wrapper disseminated by ABCAST implementations.
struct AbData : wire::MessageBase<AbData> {
  static constexpr const char* kTypeName = "gcs.AbData";
  std::int32_t origin = 0;
  std::uint64_t lseq = 0;  // origin-local sequence number (message identity)
  std::string payload;
  template <class Ar>
  void fields(Ar& ar) {
    ar(origin);
    ar(lseq);
    ar(payload);
  }
};

/// Several application payloads riding one totally-ordered broadcast: the
/// unit the submission batcher hands to the ordering protocol.
struct AbEnvelope : wire::MessageBase<AbEnvelope> {
  static constexpr const char* kTypeName = "gcs.AbEnvelope";
  std::vector<wire::Blob> payloads;  // encoded application messages
  template <class Ar>
  void fields(Ar& ar) {
    ar(payloads);
  }
};

class AtomicBroadcast : public Component {
 public:
  /// Delivery callback: `origin` is the node that abcast the message.
  using DeliverFn = std::function<void(sim::NodeId origin, wire::MessagePtr msg)>;

  /// Submits `msg` to the total order. With batching enabled the payload may
  /// be buffered briefly and ordered together with other submissions.
  void abcast(const wire::Message& msg);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

 protected:
  AtomicBroadcast(sim::Process& host, sim::BatchPolicy batch);

  /// Implementation hook: hands one message (possibly an AbEnvelope) to the
  /// ordering protocol.
  virtual void abcast_now(const wire::Message& msg) = 0;

  /// Invokes `fn` once per application payload: envelopes are unpacked in
  /// submission order, everything else passes through unchanged. Used for
  /// final delivery and for optimistic-delivery hooks alike.
  static void unpack_into(sim::NodeId origin, const wire::MessagePtr& msg, const DeliverFn& fn);

  /// Delivers `msg` upward through the registered callback (unpacking
  /// envelopes).
  void deliver_up(sim::NodeId origin, const wire::MessagePtr& msg);

  sim::Process& abcast_host_;

 private:
  void flush_batch(std::vector<wire::Blob> payloads);

  sim::Batcher<wire::Blob> batcher_;  // encoded payloads awaiting flush
  DeliverFn deliver_;
};

}  // namespace repli::gcs

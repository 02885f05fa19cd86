// Fixed-sequencer Atomic Broadcast.
//
// Data messages are disseminated by reliable flooding; the sequencer (the
// lowest non-suspected group member) assigns global sequence numbers and
// floods the ordering decisions; everyone delivers in global-sequence order
// once both the data and its order are known. On sequencer crash the next
// member takes over and sequences the backlog.
//
// This variant is fast (one ordering message per broadcast) but, like its
// real-world counterparts (ISIS-style sequencers), it assumes an accurate
// failure detector: two live sequencers under false suspicion could order
// divergently. The consensus-based variant makes no such assumption.
//
// Per-message state lives in flat tables indexed by sequence number, and a
// message leaves them once delivered, so memory follows the undelivered
// messages rather than the run's length:
//  - per origin, a ring indexed by lseq from the origin's delivered
//    watermark (every lseq below it is delivered) up to its newest known
//    message. Each slot holds the received AbData (shared, not copied), its
//    causal trace id, its open order span and its gseq; slots delivered
//    above the watermark are the "ahead set", folded in as the gaps fill.
//    A late duplicate order for a delivered id finds it below the
//    watermark or in the ahead set, and is ignored.
//  - a ring indexed by gseq from the next one to deliver.
#pragma once

#include <memory>
#include <vector>

#include "gcs/abcast.hh"
#include "gcs/fd.hh"
#include "gcs/flood.hh"
#include "gcs/group.hh"
#include "obs/context.hh"
#include "obs/trace.hh"
#include "util/seq_ring.hh"

namespace repli::gcs {

struct AbOrder : wire::MessageBase<AbOrder> {
  static constexpr const char* kTypeName = "gcs.AbOrder";
  std::int32_t origin = 0;
  std::uint64_t lseq = 0;
  std::uint64_t gseq = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(origin);
    ar(lseq);
    ar(gseq);
  }
};

/// Several ordering decisions in one flood: with batching enabled the
/// sequencer gathers assignments for a flush window and ships them together
/// (the order-side half of the batching fast path).
struct AbOrderBatch : wire::MessageBase<AbOrderBatch> {
  static constexpr const char* kTypeName = "gcs.AbOrderBatch";
  std::vector<AbOrder> orders;
  template <class Ar>
  void fields(Ar& ar) {
    ar(orders);
  }
};

/// Grace period between suspecting the sequencer and sequencing the
/// backlog, sized to let in-flight orders from the previous sequencer
/// settle (timed-asynchronous assumption; see file header).
inline constexpr sim::Time kSequencerTakeoverDelay = 50 * sim::kMsec;

class SequencerAbcast : public AtomicBroadcast {
 public:
  /// Consumes flooding channel `channel` (and `channel`+1 internally).
  /// `batch` covers every layer of this broadcast: submission envelopes (see
  /// AtomicBroadcast), the sequencer's ordering decisions (AbOrderBatch
  /// floods) and the flood's link packs.
  SequencerAbcast(sim::Process& host, Group group, FailureDetector& fd, std::uint32_t channel,
                  sim::BatchPolicy batch = {});

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  /// Optimistic delivery (Kemme/Pedone/Alonso/Schiper [KPAS99a]): fires as
  /// soon as a broadcast's payload arrives, *before* its place in the total
  /// order is known. On a LAN the arrival order usually equals the final
  /// order, so a consumer can overlap processing with the ordering round
  /// and merely validate at final delivery.
  void set_opt_deliver(DeliverFn fn) { opt_deliver_ = std::move(fn); }

  sim::NodeId current_sequencer() const;

  /// Slots held in the per-origin tables: from each origin's delivered
  /// watermark to its newest known message. 0 once every message this node
  /// knows of has been delivered.
  std::size_t held() const;

 protected:
  void abcast_now(const wire::Message& msg) override;

 private:
  using MsgId = std::pair<std::int32_t, std::uint64_t>;

  /// A known message not yet delivered: its payload once that has arrived,
  /// its place in the total order once that is known.
  struct Entry {
    std::shared_ptr<const AbData> data;  // null until the payload arrives
    std::uint64_t gseq = 0;              // 0 until the order is known
    std::uint64_t trace = 0;             // causal trace the payload arrived under
    obs::SpanId span = obs::kNoSpan;     // open gcs/abcast.order span
    bool assign_pending = false;         // in order_batcher_ (double-assign guard)
    bool delivered = false;              // delivered above the watermark
  };

  void on_flood(wire::MessagePtr msg);
  void sequence_backlog();
  void assign(const MsgId& id);
  void apply_order(const AbOrder& order);
  void flush_orders(std::vector<AbOrder> orders);
  void try_deliver();
  /// True when this node is the sequencer *and* its takeover grace period
  /// has elapsed (in-flight orders from the predecessor have settled).
  bool may_sequence() const;

  bool delivered(const MsgId& id) const;
  /// Delivered, or in the total order awaiting delivery.
  bool ordered(const MsgId& id) const;
  /// The slot of an id that is not delivered, created empty if unknown.
  /// Creating a slot may move the others: re-find after anything that can
  /// reach on_flood (a delivery, an opt-delivery, a flood).
  Entry& entry(const MsgId& id);
  /// Frees a delivered id's slot, then advances its origin's watermark
  /// past every delivered slot.
  void mark_delivered(const MsgId& id);

  sim::Process& host_;
  Group group_;
  FailureDetector& fd_;
  Flooder flood_;
  std::uint64_t next_lseq_ = 1;
  AbData outgoing_;  // reused by abcast_now: its payload keeps its capacity

  std::vector<util::SeqRing<Entry>> table_;  // per origin node id, by lseq
  // gseq -> id from the next gseq to deliver (base()); lseq 0 marks a gseq
  // whose order has not arrived.
  util::SeqRing<MsgId> order_{1};
  std::uint64_t next_gseq_ = 1;               // sequencer-side allocator
  sim::Time sequencing_allowed_at_ = 0;       // takeover grace deadline
  DeliverFn opt_deliver_;
  sim::Batcher<AbOrder> order_batcher_;       // assignments awaiting a batched flood
};

}  // namespace repli::gcs

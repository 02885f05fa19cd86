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
#pragma once

#include <map>
#include <set>

#include "gcs/abcast.hh"
#include "gcs/fd.hh"
#include "gcs/flood.hh"
#include "gcs/group.hh"
#include "obs/context.hh"
#include "obs/trace.hh"

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

 protected:
  void abcast_now(const wire::Message& msg) override;

 private:
  using MsgId = std::pair<std::int32_t, std::uint64_t>;

  void on_flood(wire::MessagePtr msg);
  void sequence_backlog();
  void assign(const MsgId& id);
  void apply_order(const AbOrder& order);
  void flush_orders(std::vector<AbOrder> orders);
  void try_deliver();
  /// True when this node is the sequencer *and* its takeover grace period
  /// has elapsed (in-flight orders from the predecessor have settled).
  bool may_sequence() const;

  sim::Process& host_;
  Group group_;
  FailureDetector& fd_;
  Flooder flood_;
  std::uint64_t next_lseq_ = 1;

  std::map<MsgId, std::string> payloads_;     // everything received
  std::set<MsgId> ordered_;                   // ids that have a gseq
  std::map<std::uint64_t, MsgId> order_;      // gseq -> id
  std::uint64_t next_deliver_ = 1;            // next gseq to deliver
  std::uint64_t next_gseq_ = 1;               // sequencer-side allocator
  sim::Time sequencing_allowed_at_ = 0;       // takeover grace deadline
  DeliverFn opt_deliver_;
  std::map<MsgId, obs::SpanId> order_spans_;  // open gcs/abcast.order spans
  std::map<MsgId, std::uint64_t> trace_of_;   // causal trace each payload arrived under
  sim::Batcher<AbOrder> order_batcher_;       // assignments awaiting a batched flood
  std::set<MsgId> assign_pending_;            // ids in order_batcher_ (double-assign guard)
};

}  // namespace repli::gcs

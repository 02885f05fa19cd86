// Consensus-based Atomic Broadcast (Chandra–Toueg reduction).
//
// Messages are disseminated by reliable flooding; undelivered messages are
// batched and agreed on through a sequence of consensus instances; each
// decided batch is delivered in a deterministic order. Inherits consensus's
// guarantees: safe under message loss, false suspicion, and a crashed
// minority — the "no assumptions beyond ◊S" counterpart to the sequencer.
#pragma once

#include <map>
#include <set>

#include "gcs/abcast.hh"
#include "gcs/consensus.hh"
#include "obs/trace.hh"

namespace repli::gcs {

/// A batch of messages proposed to / decided by one consensus instance.
struct AbBatch : wire::MessageBase<AbBatch> {
  static constexpr const char* kTypeName = "gcs.AbBatch";
  std::vector<AbData> entries;
  template <class Ar>
  void fields(Ar& ar) {
    ar(entries);
  }
};

class ConsensusAbcast : public AtomicBroadcast {
 public:
  /// Consumes flooding/link channels [channel, channel+3]. `batch` covers
  /// the submission envelopes and the link packs of every link below.
  ConsensusAbcast(sim::Process& host, Group group, FailureDetector& fd, std::uint32_t channel,
                  sim::BatchPolicy batch = {});

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

 protected:
  void abcast_now(const wire::Message& msg) override;

 private:
  using MsgId = std::pair<std::int32_t, std::uint64_t>;

  void on_flood(wire::MessagePtr msg);
  void on_decide(std::uint64_t instance, const std::string& value);
  void apply_ready_decisions();
  void maybe_start_instance();

  sim::Process& host_;
  Group group_;
  Flooder flood_;
  Consensus consensus_;
  std::uint64_t next_lseq_ = 1;

  std::map<MsgId, std::string> pending_;           // received, not yet delivered
  std::set<MsgId> delivered_;
  std::uint64_t next_instance_ = 1;                // next instance to decide/apply
  std::map<std::uint64_t, std::string> decisions_; // decided, awaiting in-order apply
  bool proposed_current_ = false;
  std::map<MsgId, obs::SpanId> order_spans_;       // open gcs/abcast.order spans
};

}  // namespace repli::gcs

// Chandra–Toueg ◊S consensus (rotating coordinator), multi-instance.
//
// Safety relies only on majority intersection, so it tolerates message loss
// (absorbed by ARQ links), false suspicions, and up to ⌈n/2⌉-1 crashes.
// Liveness needs the failure detector to eventually stop falsely suspecting
// a correct coordinator; round deadlines escalate to help that along.
//
// Supports *deferred initial values* (Défago/Schiper/Sergent, SRDS'98): a
// process may participate without proposing; a coordinator with no estimate
// asks `value_provider` for one only when its round actually starts. This is
// exactly the primitive semi-passive replication is built on — the provider
// is "execute the request and produce the update".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "gcs/abcast.hh"
#include "gcs/fd.hh"
#include "gcs/flood.hh"
#include "gcs/group.hh"
#include "gcs/link.hh"
#include "obs/trace.hh"

namespace repli::gcs {

struct CsEstimate : wire::MessageBase<CsEstimate> {
  static constexpr const char* kTypeName = "gcs.CsEstimate";
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
  bool has_value = false;
  std::string estimate;
  std::uint64_t ts = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(instance);
    ar(round);
    ar(has_value);
    ar(estimate);
    ar(ts);
  }
};

struct CsProposal : wire::MessageBase<CsProposal> {
  static constexpr const char* kTypeName = "gcs.CsProposal";
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
  std::string value;
  template <class Ar>
  void fields(Ar& ar) {
    ar(instance);
    ar(round);
    ar(value);
  }
};

struct CsAck : wire::MessageBase<CsAck> {
  static constexpr const char* kTypeName = "gcs.CsAck";
  std::uint64_t instance = 0;
  std::uint64_t round = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(instance);
    ar(round);
  }
};

struct CsDecide : wire::MessageBase<CsDecide> {
  static constexpr const char* kTypeName = "gcs.CsDecide";
  std::uint64_t instance = 0;
  std::string value;
  template <class Ar>
  void fields(Ar& ar) {
    ar(instance);
    ar(value);
  }
};

// A round's deadline: the first round's, doubled per round up to the cap.
inline constexpr sim::Time kConsensusRoundTimeout = 20 * sim::kMsec;
inline constexpr sim::Time kConsensusMaxRoundTimeout = 500 * sim::kMsec;

class Consensus : public Component {
 public:
  using DecideFn = std::function<void(std::uint64_t instance, const std::string& value)>;
  /// Produces a proposal on demand (deferred initial value). May return
  /// nullopt if no value can be produced yet; the round is then skipped.
  using ValueProvider = std::function<std::optional<std::string>(std::uint64_t instance)>;

  /// `batch` packs the payloads of every link below (see ReliableLink).
  Consensus(sim::Process& host, Group group, FailureDetector& fd, std::uint32_t channel,
            sim::BatchPolicy batch = {});

  void set_decide(DecideFn fn) { decide_ = std::move(fn); }
  void set_value_provider(ValueProvider fn) { provider_ = std::move(fn); }

  /// Proposes `value` for `instance`. Joins the instance if not yet active.
  void propose(std::uint64_t instance, std::string value);

  /// Joins `instance` without a value (deferred-initial-value mode).
  void participate(std::uint64_t instance);

  bool has_decided(std::uint64_t instance) const { return decided_.contains(instance); }
  const std::string& decision(std::uint64_t instance) const;

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

 private:
  struct Instance {
    std::uint64_t round = 0;
    bool has_estimate = false;
    std::string estimate;
    std::uint64_t ts = 0;
    bool acked_this_round = false;
    std::uint64_t deadline_epoch = 0;  // invalidates stale deadline timers
    // Coordinator-side collection for the current round.
    std::map<sim::NodeId, CsEstimate> estimates;
    std::set<sim::NodeId> acks;
    bool proposal_sent = false;
    obs::SpanId round_span = obs::kNoSpan;  // open gcs/consensus.round span
  };

  sim::NodeId coordinator_of(std::uint64_t round) const;
  Instance& instance(std::uint64_t k);
  void close_round_span(Instance& inst, const char* outcome);
  void begin_round(std::uint64_t k);
  void advance_round(std::uint64_t k);
  void arm_deadline(std::uint64_t k);
  void maybe_propose_as_coordinator(std::uint64_t k);
  void decide(std::uint64_t k, const std::string& value);

  sim::Process& host_;
  Group group_;
  FailureDetector& fd_;
  ReliableLink link_;
  Flooder decide_flood_;
  DecideFn decide_;
  ValueProvider provider_;
  std::map<std::uint64_t, Instance> active_;
  std::map<std::uint64_t, std::string> decided_;
};

}  // namespace repli::gcs

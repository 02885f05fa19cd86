// Eager update-everywhere based on Atomic Broadcast, §4.4.2 / Fig. 9.
//
//   RE  client sends to its local server (the delegate)
//   SC  the delegate forwards the operation through ABCAST; the total order
//       dictates how conflicting operations serialize
//   EX  every replica executes in delivery order
//   AC  — none — (the paper's point: ordering makes the extra round
//       unnecessary when execution is deterministic)
//   END the delegate answers the client
#pragma once

#include <deque>
#include <memory>
#include <set>

#include "core/replica.hh"
#include "gcs/abcast_sequencer.hh"
#include "gcs/fd.hh"

namespace repli::core {

struct EaForward : wire::MessageBase<EaForward> {
  static constexpr const char* kTypeName = "core.EaForward";
  std::int32_t delegate = 0;
  ClientRequest request;
  template <class Ar>
  void fields(Ar& ar) {
    ar(delegate);
    ar(request);
  }
};

struct EagerAbcastConfig {
  /// Optimistic processing over atomic broadcast ([KPAS99a], the DRAGON
  /// result the paper's introduction highlights): execute tentatively on
  /// *optimistic* delivery (payload arrival), overlapping execution with
  /// the ordering round; at final delivery, commit the precomputed writes
  /// if the state basis is unchanged, else re-execute. Hides (most of) the
  /// execution cost behind the group-communication latency.
  bool optimistic_execution = false;
};

class EagerAbcastReplica : public ReplicaBase {
 public:
  EagerAbcastReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                     EagerAbcastConfig config = {});

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  void on_optimistic(const std::shared_ptr<const EaForward>& fwd);
  void on_delivered(const std::shared_ptr<const EaForward>& fwd);

  struct Tentative {
    bool done = false;
    std::map<db::Key, db::Value> writes;
    std::map<db::Key, std::uint64_t> reads;
    std::string result;
  };

  gcs::FailureDetector fd_;
  gcs::SequencerAbcast abcast_;
  EagerAbcastConfig config_;
  std::set<std::string> seen_;
  std::map<std::string, Tentative> tentative_;
};

}  // namespace repli::core

// Active replication (state machine approach, §3.2 / Fig. 2).
//
//   RE  client ABCASTs the request to the server group
//   SC  total order of the Atomic Broadcast
//   EX  every replica executes the request (determinism required!)
//   AC  — none —
//   END every replica replies; the client keeps the first answer
//
// Determinism is *not* assumed away: operations whose stored procedure is
// nondeterministic execute against replica-local randomness, so replicas
// genuinely diverge — exactly the failure mode the paper says this
// technique cannot handle (tests and Fig-5 probes rely on it).
#pragma once

#include <memory>
#include <set>

#include "core/replica.hh"
#include "gcs/abcast.hh"
#include "gcs/abcast_consensus.hh"
#include "gcs/abcast_sequencer.hh"
#include "gcs/fd.hh"

namespace repli::core {

enum class AbcastImpl { Sequencer, Consensus };

class ActiveReplica : public ReplicaBase {
 public:
  ActiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                AbcastImpl impl = AbcastImpl::Sequencer);

 private:
  void on_request(const RequestPtr& request);

  gcs::FailureDetector fd_;
  std::unique_ptr<gcs::AtomicBroadcast> abcast_;
  std::set<std::string> seen_;  // request ids already processed (retries)
  std::unique_ptr<db::LocalRandomChoices> choices_;
  std::unique_ptr<util::Rng> exec_rng_;
};

}  // namespace repli::core

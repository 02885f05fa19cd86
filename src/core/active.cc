#include "core/active.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

ActiveReplica::ActiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                             AbcastImpl impl)
    : ReplicaBase(id, sim, "active-" + std::to_string(id), std::move(env)),
      fd_(*this, group()) {
  add_component(fd_);
  if (impl == AbcastImpl::Sequencer) {
    abcast_ = std::make_unique<gcs::SequencerAbcast>(
        *this, group(), fd_, kAbcastChannel, this->env().batch);
  } else {
    abcast_ = std::make_unique<gcs::ConsensusAbcast>(
        *this, group(), fd_, kAbcastChannel, this->env().batch);
  }
  add_component(*abcast_);
  // Replica-local randomness: nondeterministic procedures will diverge.
  exec_rng_ = std::make_unique<util::Rng>(sim.rng().split());
  choices_ = std::make_unique<db::LocalRandomChoices>(*exec_rng_);

  abcast_->set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    if (const auto request = wire::message_cast<ClientRequest>(msg)) on_request(request);
  });
}

void ActiveReplica::on_request(const RequestPtr& request) {
  // Client retries re-enter the ABCAST; total order makes the dedup
  // decision identical at every replica. Re-replying from the cache covers
  // the case where every original reply was lost.
  if (!seen_.insert(request->request_id).second) {
    replay_cached_reply(request->client, request->request_id);
    return;
  }
  util::ensure(request->ops.size() == 1,
               "active replication implements the single-operation model (§2.2)");
  phase_now(request->request_id, sim::Phase::ServerCoord);

  const auto exec_start = now();
  cpu_execute(kExecCost, [this, request, exec_start] {
    const db::Operation& op = request->ops.front();
    const std::string& id = request->request_id;
    const auto outcome = db::execute_and_commit(registry(), op, storage_, *choices_, id);
    phase(id, sim::Phase::Execution, exec_start, now());
    exec_span(op, exec_start, id);
    if (!outcome.writes.empty()) {
      record_commit(id, outcome.writes, outcome.read_versions, outcome.commit_seq);
    }
    cache_reply(id, true, outcome.result);
    // Every replica answers; the client keeps the first reply (§3.2 step 5).
    reply(request->client, id, true, outcome.result);
  });
}

}  // namespace repli::core

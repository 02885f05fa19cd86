#include "core/semi_active.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

SemiActiveReplica::SemiActiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env)
    : ReplicaBase(id, sim, "semi-active-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      abcast_(*this, group(), fd_, kAbcastChannel, this->env().batch),
      vg_(*this, group(), fd_, kViewChannel) {
  add_component(fd_);
  add_component(abcast_);
  add_component(vg_);
  exec_rng_ = std::make_unique<util::Rng>(sim.rng().split());

  abcast_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto request = wire::message_cast<ClientRequest>(msg);
    if (request) on_request(*request);
  });
  vg_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto decision = wire::message_cast<SaDecision>(msg);
    if (!decision) return;
    decisions_.emplace(decision->request_id, decision->choices);
    pump();
  });
  vg_.on_view([this](const gcs::View& /*view*/) { pump(); });  // leader may have changed
}

void SemiActiveReplica::on_request(const ClientRequest& request) {
  if (!seen_.insert(request.request_id).second) {
    replay_cached_reply(request.client, request.request_id);
    return;
  }
  util::ensure(request.ops.size() == 1,
               "semi-active replication implements the single-operation model (§2.2)");
  phase_now(request.request_id, sim::Phase::ServerCoord);
  queue_.push_back(request);
  pump();
}

void SemiActiveReplica::pump() {
  if (busy_ || queue_.empty()) return;
  const ClientRequest& head = queue_.front();

  if (const auto it = decisions_.find(head.request_id); it != decisions_.end()) {
    // Follower path (and leader path after its own decision round-trips):
    // execute with the leader's choices replayed.
    busy_ = true;
    const auto exec_start = now();
    const auto choices = it->second;
    cpu_execute(kExecCost, [this, choices, exec_start] {
      db::ReplayChoices replay(choices);
      phase(queue_.front().request_id, sim::Phase::Execution, exec_start, now());
      exec_span(queue_.front().ops.front(), exec_start, queue_.front().request_id);
      execute_head(replay, false);
    });
    return;
  }
  if (is_leader()) {
    // Leader path: execute, recording every nondeterministic choice, and
    // VSCAST the choice log (the AC phase, one iteration per decision
    // point, Fig. 4). The VSCAST self-delivery stores the decision; the
    // actual commit happens in execute_head below.
    busy_ = true;
    const auto exec_start = now();
    cpu_execute(kExecCost, [this, exec_start] {
      if (!is_leader()) {  // demoted while queued: let the new leader decide
        busy_ = false;
        pump();
        return;
      }
      db::LocalRandomChoices local(*exec_rng_);
      db::RecordingChoices recording(local);
      phase(queue_.front().request_id, sim::Phase::Execution, exec_start, now());
      exec_span(queue_.front().ops.front(), exec_start, queue_.front().request_id);

      // Dry-run to collect choices (state unchanged), then decide.
      const ClientRequest head = queue_.front();
      db::TxnExec probe(head.request_id, storage_);
      probe.run(registry(), head.ops.front(), recording);

      SaDecision decision;
      decision.request_id = head.request_id;
      decision.choices = recording.log();
      phase_now(head.request_id, sim::Phase::AgreementCoord);
      decisions_.emplace(decision.request_id, decision.choices);
      vg_.vscast(decision);

      db::ReplayChoices replay(recording.log());
      execute_head(replay, true);
    });
  }
  // Follower without a decision: wait for the leader's VSCAST.
}

void SemiActiveReplica::execute_head(db::ChoiceSource& choices, bool /*record*/) {
  const ClientRequest head = queue_.front();
  queue_.pop_front();
  busy_ = false;

  const auto outcome =
      db::execute_and_commit(registry(), head.ops.front(), storage_, choices, head.request_id);
  if (!outcome.writes.empty()) {
    record_commit(head.request_id, outcome.writes, outcome.read_versions, outcome.commit_seq);
  }
  if (!is_leader()) phase_now(head.request_id, sim::Phase::AgreementCoord);
  cache_reply(head.request_id, true, outcome.result);
  reply(head.client, head.request_id, true, outcome.result);
  pump();
}

}  // namespace repli::core

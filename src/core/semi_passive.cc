#include "core/semi_passive.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

SemiPassiveReplica::SemiPassiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env)
    : ReplicaBase(id, sim, "semi-passive-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      requests_(*this, group(), kRequestChannel),
      consensus_(*this, group(), fd_, kConsensusChannel) {
  add_component(fd_);
  add_component(requests_);
  add_component(consensus_);
  exec_rng_ = std::make_unique<util::Rng>(sim.rng().split());

  requests_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto request = wire::message_cast<ClientRequest>(msg);
    if (request) on_request(*request);
  });
  consensus_.set_value_provider(
      [this](std::uint64_t instance) { return provide(instance); });
  consensus_.set_decide(
      [this](std::uint64_t instance, const std::string& value) { on_decide(instance, value); });
}

void SemiPassiveReplica::on_request(const ClientRequest& request) {
  if (done_.contains(request.request_id)) {
    replay_cached_reply(request.client, request.request_id);
    return;
  }
  util::ensure(request.ops.size() == 1,
               "semi-passive replication implements the single-operation model (§2.2)");
  pending_.emplace(request.request_id, request);
  maybe_participate();
}

void SemiPassiveReplica::maybe_participate() {
  if (pending_.empty()) return;
  if (participated_upto_ >= next_instance_) return;
  participated_upto_ = next_instance_;
  consensus_.participate(next_instance_);
}

std::optional<std::string> SemiPassiveReplica::provide(std::uint64_t instance) {
  // Deferred initial value: only called when we coordinate a round.
  if (instance != next_instance_ || pending_.empty()) return std::nullopt;
  const ClientRequest& request = pending_.begin()->second;

  phase_now(request.request_id, sim::Phase::Execution);
  const auto exec_start = now();
  db::LocalRandomChoices choices(*exec_rng_);
  db::TxnExec txn(request.request_id, storage_);
  SpDecision decision;
  decision.request_id = request.request_id;
  decision.client = request.client;
  decision.result = txn.run(registry(), request.ops.front(), choices);
  decision.writes = txn.writes();
  exec_span(request.ops.front(), exec_start, request.request_id);
  return wire::to_blob(decision);
}

void SemiPassiveReplica::on_decide(std::uint64_t instance, const std::string& value) {
  decisions_.emplace(instance, value);
  apply_ready();
}

void SemiPassiveReplica::apply_ready() {
  for (;;) {
    const auto it = decisions_.find(next_instance_);
    if (it == decisions_.end()) break;
    const auto decision = wire::message_cast<SpDecision>(wire::from_blob(it->second));
    util::ensure(decision != nullptr, "semi-passive: decision is not an SpDecision");
    decisions_.erase(it);
    ++next_instance_;

    if (done_.insert(decision->request_id).second) {
      install(decision->request_id, decision->writes);
      pending_.erase(decision->request_id);
      cache_reply(decision->request_id, true, decision->result);
      phase_now(decision->request_id, sim::Phase::AgreementCoord);
      span_now("db/exec.apply", decision->request_id,
               obs::Attrs{{"writes", std::to_string(decision->writes.size())}});
      // Every replica answers (failure transparency; client keeps the first).
      reply(decision->client, decision->request_id, true, decision->result);
    }
  }
  maybe_participate();
}

}  // namespace repli::core

#include "core/lazy_primary.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

LazyPrimaryReplica::LazyPrimaryReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                                       LazyConfig config)
    : ReplicaBase(id, sim, "lazy-primary-" + std::to_string(id), std::move(env)),
      ship_(*this, kShipChannel, this->env().batch),
      config_(config) {
  add_component(ship_);
  ship_.set_deliver([this](sim::NodeId /*from*/, wire::MessagePtr msg) {
    const auto update = wire::message_cast<LzUpdate>(msg);
    if (update) on_update(*update);
  });
}

void LazyPrimaryReplica::on_unhandled(sim::NodeId /*from*/, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) on_request(request);
}

void LazyPrimaryReplica::on_request(const RequestPtr& request) {
  if (replay_cached_reply(request->client, request->request_id)) return;
  if (!request->read_only() && !is_primary()) {
    redirect(*request, group().members().front());  // updates belong at the primary copy
    return;
  }
  const auto exec_start = now();
  cpu_execute(kExecCost * static_cast<sim::Time>(request->ops.size()),
              [this, request, exec_start] {
    // Execute the whole transaction locally (for lazy replication it makes
    // no difference whether it has one or many operations, §5.3).
    db::TxnExec txn(request->request_id, storage_);
    db::SeededChoices choices(wire::fnv1a(request->request_id));
    const auto result = execute_request(*request, txn, choices, exec_start);
    if (!result) return;

    const auto writes = txn.writes();
    if (!writes.empty()) install(request->request_id, writes, txn.read_versions());
    cache_reply(request->request_id, true, *result);
    // END before AC: the client hears back *before* any replica coordination.
    reply(request->client, request->request_id, true, *result);

    if (!writes.empty()) {
      LzUpdate update;
      update.txn = request->request_id;
      update.writes = writes;
      update.committed_at = now();
      set_timer(config_.propagation_delay, [this, update, request] {
        phase_now(request->request_id, sim::Phase::AgreementCoord);
        for (const auto m : group().members()) {
          if (m != id()) ship_.send_fifo(m, update);
        }
      });
    }
  });
}

void LazyPrimaryReplica::on_update(const LzUpdate& update) {
  const auto apply_start = now();
  cpu_execute(kApplyCost, [this, update, apply_start] {
    install(update.txn, update.writes);
    sim().metrics().histogram("lazy.staleness_us")
        .observe(static_cast<double>(now() - update.committed_at));
    phase(update.txn, sim::Phase::AgreementCoord, apply_start, now());
    span("db/exec.apply", apply_start, now(), update.txn,
         obs::Attrs{{"writes", std::to_string(update.writes.size())}});
  });
}

}  // namespace repli::core

#include "core/eager_abcast.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

EagerAbcastReplica::EagerAbcastReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                                       EagerAbcastConfig config)
    : ReplicaBase(id, sim, "eager-abcast-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      abcast_(*this, group(), fd_, kAbcastChannel, this->env().batch),
      config_(config) {
  add_component(fd_);
  add_component(abcast_);
  abcast_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    if (const auto fwd = wire::message_cast<EaForward>(msg)) on_delivered(fwd);
  });
  if (config_.optimistic_execution) {
    abcast_.set_opt_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
      if (const auto fwd = wire::message_cast<EaForward>(msg)) on_optimistic(fwd);
    });
  }
}

void EagerAbcastReplica::on_unhandled(sim::NodeId /*from*/, wire::MessagePtr msg) {
  const auto request = wire::message_cast<ClientRequest>(msg);
  if (!request) return;
  if (replay_cached_reply(request->client, request->request_id)) return;
  util::ensure(request->ops.size() == 1,
               "eager update-everywhere ABCAST implements the single-operation model "
               "(use certification-based replication for multi-op transactions, §5.4.2)");
  // RE -> SC: forward the request into the total order.
  EaForward fwd;
  fwd.delegate = id();
  fwd.request = *request;
  abcast_.abcast(fwd);
}

void EagerAbcastReplica::on_optimistic(const std::shared_ptr<const EaForward>& fwd) {
  // Tentative execution, overlapping the ordering round. The CPU work is
  // the same; what we buy is that it happens *now* instead of after the
  // sequencer's round trip.
  // Shares the delivered forward: closures below hold it, not a copy.
  const RequestPtr request(fwd, &fwd->request);
  if (seen_.contains(request->request_id) || tentative_.contains(request->request_id)) return;
  tentative_.emplace(request->request_id, Tentative{});
  cpu_execute(kExecCost, [this, request] {
    // Note: the final delivery may already have *arrived* — that is fine,
    // its commit task sits behind this one on the CPU queue and will pick
    // the tentative result up. Only a finished transaction (entry erased)
    // makes this work pointless.
    const auto it = tentative_.find(request->request_id);
    if (it == tentative_.end()) return;
    Tentative& t = it->second;
    db::TxnExec txn(request->request_id, storage_);
    db::SeededChoices choices(wire::fnv1a(request->request_id));
    try {
      t.result = txn.run(registry(), request->ops.front(), choices);
    } catch (const std::exception&) {
      tentative_.erase(it);  // fall back to the final-delivery path
      return;
    }
    t.writes = txn.writes();
    t.reads = txn.read_versions();
    t.done = true;
  });
}

void EagerAbcastReplica::on_delivered(const std::shared_ptr<const EaForward>& fwd) {
  // Shares the delivered forward: closures below hold it, not a copy.
  const RequestPtr request(fwd, &fwd->request);
  if (!seen_.insert(request->request_id).second) return;  // duplicate forward
  phase_now(request->request_id, sim::Phase::ServerCoord);
  const auto delegate = fwd->delegate;

  // A tentative execution validates iff everything it read is unchanged
  // (certification-style): then its effects equal what executing at the
  // final position would produce.
  auto validates = [this](const Tentative& t) {
    if (!t.done) return false;
    for (const auto& [key, version] : t.reads) {
      const auto rec = storage_.get(key);
      const std::uint64_t current = rec.has_value() ? rec->version : 0;
      if (current != version) return false;
    }
    return true;
  };
  // A tentative entry — even one whose execution is still queued — will be
  // complete by the time our task reaches the front of the (FIFO) CPU
  // queue, so its existence predicts a hit; validation happens in-task.
  const bool predicted_hit = tentative_.contains(request->request_id);
  const auto exec_start = now();

  auto commit = [this, request, delegate, exec_start](std::map<db::Key, db::Value> writes,
                                                      std::map<db::Key, std::uint64_t> reads,
                                                      std::string result) {
    tentative_.erase(request->request_id);
    if (!writes.empty()) install(request->request_id, writes, reads);
    phase(request->request_id, sim::Phase::Execution, exec_start, now());
    exec_span(request->ops.front(), exec_start, request->request_id);
    cache_reply(request->request_id, true, result);
    if (delegate == id()) {
      reply(request->client, request->request_id, true, result);
    }
  };
  auto execute_now = [this, request, commit] {
    db::TxnExec txn(request->request_id, storage_);
    db::SeededChoices choices(wire::fnv1a(request->request_id));
    const auto result = txn.run(registry(), request->ops.front(), choices);
    if (config_.optimistic_execution) {
      sim().metrics().incr("optimistic.misses");
    }
    commit(txn.writes(), txn.read_versions(), result);
  };

  if (!predicted_hit) {
    cpu_execute(kExecCost, execute_now);
    return;
  }
  cpu_execute(kApplyCost, [this, request, validates, commit, execute_now] {
    const auto it = tentative_.find(request->request_id);
    if (it != tentative_.end() && validates(it->second)) {
      sim().metrics().incr("optimistic.hits");
      commit(std::move(it->second.writes), std::move(it->second.reads),
             std::move(it->second.result));
      return;
    }
    // Mis-speculation: redo in place. Committing must stay in delivery
    // order, so the redo cannot be re-queued behind later transactions;
    // the (rare) miss is therefore undercharged by kExecCost - kApplyCost
    // of simulated CPU — an accepted approximation.
    execute_now();
  });
}

}  // namespace repli::core

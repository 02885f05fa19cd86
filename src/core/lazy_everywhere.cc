#include "core/lazy_everywhere.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"

namespace repli::core {

LazyEverywhereReplica::LazyEverywhereReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                                             LazyConfig config)
    : ReplicaBase(id, sim, "lazy-everywhere-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      abcast_(*this, group(), fd_, kAbcastChannel, this->env().batch),
      flood_(*this, group(), kRequestChannel, this->env().batch),
      config_(config) {
  add_component(fd_);
  add_component(abcast_);
  add_component(flood_);
  abcast_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto update = wire::message_cast<LeUpdate>(msg);
    if (update) on_ordered(*update);
  });
  flood_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto update = wire::message_cast<LeUpdate>(msg);
    if (update) on_lww(*update);
  });
}

void LazyEverywhereReplica::on_unhandled(sim::NodeId /*from*/, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) on_request(request);
}

void LazyEverywhereReplica::on_request(const RequestPtr& request) {
  if (replay_cached_reply(request->client, request->request_id)) return;
  const auto exec_start = now();
  cpu_execute(kExecCost * static_cast<sim::Time>(request->ops.size()),
              [this, request, exec_start] {
    db::TxnExec txn(request->request_id, storage_);
    db::SeededChoices choices(wire::fnv1a(request->request_id));
    const auto result = execute_request(*request, txn, choices, exec_start);
    if (!result) return;

    const auto writes = txn.writes();
    if (!writes.empty()) {
      // Optimistic local commit: visible to local reads immediately.
      install(request->request_id, writes, txn.read_versions());
      if (config_.reconciliation == Reconciliation::AbcastOrder) {
        for (const auto& [key, value] : writes) local_pending_[key] = request->request_id;
      } else {
        const Stamp mine{now(), id()};
        for (const auto& [key, value] : writes) {
          auto& stamp = key_stamp_[key];
          if (stamp < mine) stamp = mine;
        }
      }
    }
    cache_reply(request->request_id, true, *result);
    // END before AC: reply now, reconcile later.
    reply(request->client, request->request_id, true, *result);

    if (!writes.empty()) {
      LeUpdate update;
      update.txn = request->request_id;
      update.origin = id();
      update.writes = writes;
      update.committed_at = now();
      set_timer(config_.propagation_delay, [this, update] {
        if (config_.reconciliation == Reconciliation::AbcastOrder) {
          abcast_.abcast(update);
        } else {
          flood_.rbcast(update);
        }
      });
    }
  });
}

void LazyEverywhereReplica::on_ordered(const LeUpdate& update) {
  // Reconciliation: the ABCAST delivery order is the after-commit order;
  // per key, the last-ordered write wins everywhere (the delivery counter
  // is identical at every replica, so all converge to the same state).
  const std::uint64_t position = ++order_counter_;
  std::uint64_t update_seq = 0;  // all of an update's writes share one version
  phase(update.txn, sim::Phase::AgreementCoord, now(), now());
  if (update.origin != id()) {
    sim().metrics().histogram("lazy.staleness_us")
        .observe(static_cast<double>(now() - update.committed_at));
  }

  for (const auto& [key, value] : update.writes) {
    if (const auto pit = local_pending_.find(key); pit != local_pending_.end()) {
      if (update.origin == id() && pit->second == update.txn) {
        // Our optimistic write reached its slot in the global order.
        local_pending_.erase(pit);
      } else if (update.origin != id()) {
        // A remote update, ordered now, conflicts with a local optimistic
        // commit that is still awaiting its slot: the two transactions ran
        // concurrently on diverged copies, so reconciliation sacrifices
        // one of the two effects (Gray et al.'s lost work).
        count_undone(pit->second);
      }
    }
    auto& order = key_order_[key];
    if (order > position) continue;  // a later-ordered write already landed
    order = position;
    if (update_seq == 0) update_seq = storage_.next_commit_seq();
    storage_.force_put(key, value, update_seq, update.txn);
  }
}

void LazyEverywhereReplica::count_undone(const std::string& txn) {
  if (undone_txns_.insert(txn).second) {
    sim().metrics().incr("lazy.undone");
    monitor().abort_event(id(), now(), obs::AbortCause::Other, txn, "lazy-undo");
  }
}

void LazyEverywhereReplica::on_lww(const LeUpdate& update) {
  // Last-writer-wins: per key, the highest (commit time, origin) stamp wins
  // everywhere — convergent without any ordering traffic. A local value
  // beaten by a remote stamp is the lost concurrent update.
  phase(update.txn, sim::Phase::AgreementCoord, now(), now());
  if (update.origin == id()) return;  // our own flood coming back
  sim().metrics().histogram("lazy.staleness_us")
      .observe(static_cast<double>(now() - update.committed_at));

  const Stamp incoming{update.committed_at, update.origin};
  std::uint64_t update_seq = 0;
  for (const auto& [key, value] : update.writes) {
    auto& stamp = key_stamp_[key];
    if (!(stamp < incoming)) continue;  // the installed write wins or ties
    // If the value being overwritten was written locally, that local
    // transaction's effect is now globally lost.
    const auto current = storage_.get(key);
    if (current.has_value() && stamp.origin == id()) count_undone(current->writer_txn);
    stamp = incoming;
    if (update_seq == 0) update_seq = storage_.next_commit_seq();
    storage_.force_put(key, value, update_seq, update.txn);
  }
}

}  // namespace repli::core

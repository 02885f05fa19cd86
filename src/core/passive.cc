#include "core/passive.hh"

#include <algorithm>
#include <optional>

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::core {

PassiveReplica::PassiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env)
    : ReplicaBase(id, sim, "passive-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      vg_(*this, group(), fd_, kViewChannel),
      ack_link_(*this, kShipChannel) {
  add_component(fd_);
  add_component(vg_);
  add_component(ack_link_);
  ack_link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
    const auto ack = wire::message_cast<PbUpdateAck>(msg);
    if (ack) on_ack(from, *ack);
  });
  exec_rng_ = std::make_unique<util::Rng>(sim.rng().split());
  choices_ = std::make_unique<db::LocalRandomChoices>(*exec_rng_);
  vg_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    if (const auto update = wire::message_cast<PbUpdate>(msg)) on_update(*update);
  });
  vg_.on_view([this](const gcs::View& view) { on_view(view); });
  fd_.on_suspect([this](sim::NodeId who) { monitor().suspected(who, this->id(), now()); });
}

void PassiveReplica::on_unhandled(sim::NodeId from, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) {
    on_request(*request);
    return;
  }
  if (const auto ack = wire::message_cast<PbUpdateAck>(msg)) {
    on_ack(from, *ack);
    return;
  }
}

void PassiveReplica::on_request(const ClientRequest& request) {
  if (!is_primary()) {
    redirect(request, vg_.view().primary());
    return;
  }
  if (replay_cached_reply(request.client, request.request_id)) return;
  if (queued_ids_.contains(request.request_id)) return;
  util::ensure(request.ops.size() == 1,
               "passive replication implements the single-operation model (§2.2)");
  note_request_trace(request.request_id);
  queued_ids_.insert(request.request_id);
  queue_.push_back(request);
  pump();
}

void PassiveReplica::pump() {
  if (in_flight_ > 0 || queue_.empty()) return;
  if (!is_primary()) return;  // demoted: clients will be redirected on retry
  // Natural batching: the group is whatever queued up while the previous
  // one was in flight, capped at batch.max (a batch of one is a group of
  // one).
  in_flight_ = std::min(queue_.size(),
                        static_cast<std::size_t>(std::max(1, env().batch.max)));
  // The pump often runs inside the event that finished the *previous*
  // group; resume the first request's own causal trace before scheduling.
  TraceResume resume{*this, queue_.front().request_id};
  const auto exec_start = now();
  cpu_execute(kExecCost * static_cast<sim::Time>(in_flight_), [this, exec_start] {
    if (!is_primary()) {  // demoted while executing (rare; clients retry)
      in_flight_ = 0;
      return;
    }
    // Execute on a shadow: the canonical state change happens when the
    // update is VS-delivered, in the same order at primary and backups. A
    // group of several executes on a scratch copy so each transaction sees
    // its predecessors.
    std::optional<db::Storage> scratch;
    if (in_flight_ > 1) scratch.emplace(storage_);
    PbUpdate update;
    PendingUpdate pending;
    for (std::size_t i = 0; i < in_flight_;) {
      const ClientRequest& request = queue_[i];
      db::TxnExec txn(request.request_id, scratch ? *scratch : storage_);
      std::string result;
      try {
        result = txn.run(registry(), request.ops.front(), *choices_);
      } catch (const std::exception& e) {
        // Answered here and dropped from the group; the rest is unaffected.
        reply(request.client, request.request_id, false, e.what());
        queued_ids_.erase(request.request_id);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        --in_flight_;
        continue;
      }
      phase(request.request_id, sim::Phase::Execution, exec_start, now());
      exec_span(request.ops.front(), exec_start, request.request_id);
      if (scratch) txn.commit_into(*scratch);
      update.entries.push_back({request.request_id, request.client, result, txn.writes()});
      pending.answers.push_back({request.request_id, request.client, result});
      ++i;
    }
    if (update.entries.empty()) {  // every member failed at execution
      pump();
      return;
    }
    metrics().histogram("core.group_commit.occupancy")
        .observe(static_cast<double>(update.entries.size()));
    span_now("core/group_commit.start", update.key(),
             obs::Attrs{{"occupancy", std::to_string(update.entries.size())}});
    pending.ac_start = now();
    for (const auto m : vg_.view().members) {
      if (m != id()) pending.awaiting.insert(m);
    }
    pending_.emplace(update.key(), std::move(pending));
    vg_.vscast(update);  // applies locally via VS self-delivery
  });
}

void PassiveReplica::on_update(const PbUpdate& update) {
  const auto apply_start = now();
  cpu_execute(kApplyCost, [this, update, apply_start] {
    for (const auto& entry : update.entries) {
      if (has_cached_reply(entry.request_id)) continue;  // already applied here
      install(entry.request_id, entry.writes);
      cache_reply(entry.request_id, true, entry.result);
      phase(entry.request_id, sim::Phase::AgreementCoord, apply_start, now());
    }
    span("db/exec.apply", apply_start, now(), update.key(),
         obs::Attrs{{"batch_ops", std::to_string(update.entries.size())}});
    if (!is_primary()) {
      PbUpdateAck ack;
      ack.request_id = update.key();
      ack_link_.send_reliable(vg_.view().primary(), ack);
      return;
    }
    if (const auto it = pending_.find(update.key()); it != pending_.end()) {
      it->second.applied = true;
      maybe_reply(update.key());  // backups may already have acked
    } else {
      // We became primary after the old one crashed mid-broadcast: the
      // update stabilized through the view change; answer the clients.
      for (const auto& entry : update.entries) {
        reply(entry.client, entry.request_id, true, entry.result);
      }
    }
    // The primary's pipeline: start the next group once this one's update
    // has been applied locally. Acks gate only the replies.
    if (in_flight_ > 0 && queue_.front().request_id == update.key()) {
      for (; in_flight_ > 0; --in_flight_) {
        queued_ids_.erase(queue_.front().request_id);
        queue_.pop_front();
      }
      pump();
    }
  });
}

void PassiveReplica::on_ack(sim::NodeId from, const PbUpdateAck& ack) {
  const auto it = pending_.find(ack.request_id);
  if (it == pending_.end()) return;
  it->second.awaiting.erase(from);
  maybe_reply(ack.request_id);
}

void PassiveReplica::maybe_reply(const std::string& update_key) {
  const auto it = pending_.find(update_key);
  if (it == pending_.end()) return;
  if (!it->second.awaiting.empty() || !it->second.applied) return;
  for (const auto& answer : it->second.answers) {
    phase(answer.request_id, sim::Phase::AgreementCoord, it->second.ac_start, now());
    reply(answer.client, answer.request_id, true, answer.result);
  }
  pending_.erase(it);
}

void PassiveReplica::on_view(const gcs::View& view) {
  // Stop waiting for acks from members that left the view; maybe_reply
  // mutates pending_, so collect the ready updates first.
  std::vector<std::string> ready;
  for (auto& [update_key, pending] : pending_) {
    std::erase_if(pending.awaiting, [&view](sim::NodeId m) { return !view.contains(m); });
    if (pending.awaiting.empty()) ready.push_back(update_key);
  }
  for (const auto& update_key : ready) maybe_reply(update_key);
  // The monitor folds this into an open failover timeline (no-op when the
  // view change wasn't failure-driven).
  if (view.primary() == id()) monitor().promoted(id(), now());
  util::log_debug("passive ", id(), ": view ", view.id, " primary ", view.primary());
  pump();
}

}  // namespace repli::core

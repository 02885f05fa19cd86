#include "core/eager_primary.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::core {

EagerPrimaryReplica::EagerPrimaryReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env)
    : ReplicaBase(id, sim, "eager-primary-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      ship_(*this, kShipChannel),
      tpc_(*this, kTpcChannel) {
  add_component(fd_);
  add_component(ship_);
  add_component(tpc_);

  wal_.set_observer([this](const db::WalRecord& rec) {
    metrics().counter("db.wal.appends", obs::node_label(this->id())).incr();
    metrics().counter("db.wal.bytes", obs::node_label(this->id()))
        .incr(static_cast<std::int64_t>(db::Wal::record_bytes(rec)));
  });

  ship_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg) {
    if (const auto change = wire::message_cast<EpChange>(msg)) {
      if (resolved_.contains(change->txn)) return;  // late records of a resolved txn
      // Secondary: stage the shipped log records (apply happens at commit).
      Staged& staged = staged_[change->txn];
      if (staged.ac_start == 0) staged.ac_start = now();
      staged.shipper = from;
      for (const auto& [key, value] : change->writes) staged.writes[key] = value;
      EpChangeAck ack;
      ack.txn = change->txn;
      ack.op_index = change->op_index;
      ship_.send_fifo(current_primary(), ack);  // reliable: a lost ack stalls the txn
      return;
    }
    // The ack and termination traffic also rides the reliable channel.
    on_unhandled(from, std::move(msg));
  });

  tpc_.set_vote_handler([this](const std::string& txn, const std::string& payload) {
    // Vote yes iff every shipped change arrived (FIFO + acks make this the
    // normal case). The prepare payload carries the commit metadata — or,
    // for a group commit, the whole group's log records (ship folded into
    // prepare: staging happens here).
    if (!payload.empty()) {
      const auto parsed = wire::from_blob(payload);
      if (const auto meta = wire::message_cast<EpCommitMeta>(parsed)) {
        const auto it = staged_.find(txn);
        if (it == staged_.end()) return false;  // the shipped change never arrived
        it->second.client = meta->client;
        it->second.result = meta->result;
        it->second.request_id = meta->request_id;
      } else if (const auto change = wire::message_cast<EpGroupChange>(parsed)) {
        if (!resolved_.contains(txn)) staged_group_[txn] = change->entries;
      }
    }
    return staged_.contains(txn) || staged_group_.contains(txn);
  });
  tpc_.set_outcome_handler(
      [this](const std::string& txn, bool commit) { apply_commit(txn, commit); });

  fd_.on_suspect([this](sim::NodeId who) {
    monitor().suspected(who, this->id(), now());
    // Hot standby: suspicion of a lower-ranked node is itself the view
    // change — whoever now ranks first has taken over.
    if (is_primary() && who < this->id()) monitor().promoted(this->id(), now());
    on_primary_suspected(who);
    // A suspicion is final in the fault model (crash-stop; partitions heal
    // before kFdTimeout), so the suspect's ship ack is no longer awaited.
    std::vector<std::string> shipped;
    for (auto& [txn_id, txn] : active_) {
      if (txn.awaiting_acks.erase(who) > 0 && txn.awaiting_acks.empty()) {
        shipped.push_back(txn_id);
      }
    }
    for (const auto& txn_id : shipped) ship_round_done(txn_id);
  });
}

void EagerPrimaryReplica::on_unhandled(sim::NodeId from, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) {
    on_request(*request);
    return;
  }
  if (const auto ack = wire::message_cast<EpChangeAck>(msg)) {
    on_change_ack(from, *ack);
    return;
  }
  if (const auto query = wire::message_cast<EpTermQuery>(msg)) {
    EpTermInfo info;
    info.txn = query->txn;
    if (const auto it = resolved_.find(query->txn); it != resolved_.end()) {
      info.knowledge = it->second ? 1 : 2;
    }
    ship_.send_fifo(from, info);
    return;
  }
  if (const auto info = wire::message_cast<EpTermInfo>(msg)) {
    const auto it = term_waiting_.find(info->txn);
    if (it == term_waiting_.end()) return;
    if (info->knowledge == 1) {
      term_waiting_.erase(it);
      apply_commit(info->txn, true);
      return;
    }
    it->second.erase(from);
    if (it->second.empty()) {
      // Nobody saw a commit: the paper's rule — primary failure aborts its
      // active transactions. Attributed once, by the new primary.
      term_waiting_.erase(it);
      if (is_primary()) {
        monitor().abort_event(id(), now(), obs::AbortCause::Failover, info->txn,
                              "primary-crash-termination");
      }
      apply_commit(info->txn, false);
    }
    return;
  }
}

void EagerPrimaryReplica::on_request(const ClientRequest& request) {
  if (!is_primary()) {
    redirect(request, current_primary());
    return;
  }
  if (replay_cached_reply(request.client, request.request_id)) return;
  if (active_.contains(request.request_id) || queued_ids_.contains(request.request_id) ||
      group_inflight_.contains(request.request_id)) {
    return;
  }
  note_request_trace(request.request_id);
  queued_ids_.insert(request.request_id);
  queued_at_.emplace(request.request_id, now());
  queue_.push_back(request);
  pump();
}

void EagerPrimaryReplica::close_queue_wait(const std::string& request_id) {
  const auto it = queued_at_.find(request_id);
  if (it == queued_at_.end()) return;
  if (now() > it->second) span("core/queue.wait", it->second, now(), request_id);
  queued_at_.erase(it);
}

void EagerPrimaryReplica::pump() {
  if (busy_ || queue_.empty() || !is_primary()) return;
  busy_ = true;
  if (env().batch.batching()) {
    start_group();
    return;
  }
  const ClientRequest request = queue_.front();
  queue_.pop_front();
  queued_ids_.erase(request.request_id);
  // The pump often runs inside the event that finished the *previous*
  // transaction; resume this request's own causal trace before any work.
  TraceResume resume{*this, request.request_id};
  close_queue_wait(request.request_id);

  // A fresh internal id per acceptance: a client retry of a request whose
  // earlier incarnation was aborted (e.g. by the termination protocol after
  // a primary crash) must not collide with the resolved old transaction.
  Txn txn;
  txn.id = request.request_id + "@" + std::to_string(id()) + "." +
           std::to_string(++accept_seq_);
  txn.request = request;
  txn.exec = std::make_unique<db::TxnExec>(txn.id, storage_);
  const std::string txn_id = txn.id;
  request_of_txn_.emplace(txn_id, request.request_id);
  active_.emplace(txn_id, std::move(txn));
  run_next_op(txn_id);
}

void EagerPrimaryReplica::start_group() {
  // Natural batching: take whatever has queued up while the pump was busy,
  // capped at batch.max. No gather timer — an idle primary still starts
  // a lone request immediately (latency never waits on the batch filling).
  GroupTxn grp;
  grp.id = "grp@" + std::to_string(id()) + "." + std::to_string(++accept_seq_);
  const auto limit = static_cast<std::size_t>(env().batch.max);
  while (!queue_.empty() && grp.requests.size() < limit) {
    grp.requests.push_back(queue_.front());
    queue_.pop_front();
    queued_ids_.erase(grp.requests.back().request_id);
    {
      TraceResume resume{*this, grp.requests.back().request_id};
      close_queue_wait(grp.requests.back().request_id);
    }
    group_inflight_.insert(grp.requests.back().request_id);
  }
  grp.scratch = storage_;  // each txn in the group sees its predecessors
  const std::string group_id = grp.id;
  active_groups_.emplace(group_id, std::move(grp));
  run_group_step(group_id);
}

void EagerPrimaryReplica::run_group_step(const std::string& group_id) {
  auto it = active_groups_.find(group_id);
  if (it == active_groups_.end()) return;
  GroupTxn& grp = it->second;
  if (grp.next >= grp.requests.size()) {
    group_commit(group_id);
    return;
  }
  const ClientRequest request = grp.requests[grp.next];
  const auto exec_start = now();
  // Each group member executes under its own causal trace (the continuation
  // captures the ambient context at schedule time).
  TraceResume resume{*this, request.request_id};
  cpu_execute(kExecCost * static_cast<sim::Time>(request.ops.size()),
              [this, group_id, request, exec_start] {
    const auto it = active_groups_.find(group_id);
    if (it == active_groups_.end()) return;  // dropped meanwhile
    GroupTxn& grp = it->second;
    const std::string txn_id = request.request_id + "@" + std::to_string(id()) + "." +
                               std::to_string(++accept_seq_);
    db::TxnExec exec(txn_id, grp.scratch);
    db::SeededChoices choices(wire::fnv1a(request.request_id));
    // A failed transaction is answered at once and leaves the scratch state
    // untouched: the rest of the group is unaffected.
    const auto result = execute_request(request, exec, choices, exec_start);
    if (!result) {
      group_inflight_.erase(request.request_id);
    } else {
      EpGroupEntry entry;
      entry.txn = txn_id;
      entry.request_id = request.request_id;
      entry.client = request.client;
      entry.result = *result;
      entry.writes = exec.writes();
      exec.commit_into(grp.scratch);
      request_of_txn_.emplace(txn_id, request.request_id);
      grp.entries.push_back(std::move(entry));
    }
    ++grp.next;
    run_group_step(group_id);
  });
}

void EagerPrimaryReplica::group_commit(const std::string& group_id) {
  GroupTxn grp = std::move(active_groups_.at(group_id));
  active_groups_.erase(group_id);
  if (grp.entries.empty()) {  // every member failed at execution
    busy_ = false;
    pump();
    return;
  }
  metrics().histogram("core.group_commit.occupancy")
      .observe(static_cast<double>(grp.entries.size()));
  span_now("core/group_commit.start", group_id,
           obs::Attrs{{"occupancy", std::to_string(grp.entries.size())}});

  EpGroupChange change;
  change.group = group_id;
  change.entries = grp.entries;
  staged_group_[group_id] = grp.entries;  // stage our own copy

  const auto participants = fd_.trusted();
  std::vector<EpGroupEntry> replies;
  for (const auto& e : grp.entries) {
    EpGroupEntry r;
    r.request_id = e.request_id;
    r.client = e.client;
    r.result = e.result;
    replies.push_back(std::move(r));
  }
  const auto ac_start = now();
  tpc_.coordinate(group_id, participants, wire::to_blob(change),
                  [this, replies, ac_start](const std::string& group_id2, bool commit) {
                    for (const auto& r : replies) {
                      if (!commit) {
                        monitor().abort_event(id(), now(), obs::AbortCause::Failover,
                                              r.request_id, "2pc-abort");
                      }
                      phase(r.request_id, sim::Phase::AgreementCoord, ac_start, now());
                      reply(r.client, r.request_id, commit, commit ? r.result : "aborted");
                      group_inflight_.erase(r.request_id);
                    }
                    busy_ = false;
                    pump();
                    (void)group_id2;
                  });
}

void EagerPrimaryReplica::finish_txn(const std::string& txn_id) {
  active_.erase(txn_id);
  busy_ = false;
  pump();
}

void EagerPrimaryReplica::run_next_op(const std::string& txn_id) {
  auto& txn = active_.at(txn_id);
  if (txn.next_op >= txn.request.ops.size()) {
    start_commit(txn_id);
    return;
  }
  const db::Operation op = txn.request.ops[txn.next_op];
  const auto exec_start = now();
  cpu_execute(kExecCost, [this, txn_id, op, exec_start] {
    const auto it = active_.find(txn_id);
    if (it == active_.end()) return;  // aborted meanwhile
    Txn& txn = it->second;
    db::SeededChoices choices(wire::fnv1a(txn.request.request_id));
    try {
      txn.last_result = txn.exec->run(registry(), op, choices);
    } catch (const std::exception& e) {
      reply(txn.request.client, txn.request.request_id, false, e.what());
      finish_txn(txn_id);
      return;
    }
    phase(txn.request.request_id, sim::Phase::Execution, exec_start, now());
    exec_span(op, exec_start, txn.request.request_id);
    ++txn.next_op;
    ship_changes(txn_id);
  });
}

void EagerPrimaryReplica::ship_changes(const std::string& txn_id) {
  Txn& txn = active_.at(txn_id);
  // Ship the cumulative writeset after this operation (per-op AC loop of
  // Fig. 12; degenerates to one shipment for single-op transactions).
  EpChange change;
  change.txn = txn_id;
  change.op_index = static_cast<std::uint32_t>(txn.next_op);
  change.writes = txn.exec->writes();
  txn.ac_start = now();
  txn.awaiting_acks.clear();
  txn.acks = 0;
  for (const auto m : group().members()) {
    if (m == id() || fd_.suspects(m)) continue;
    txn.awaiting_acks.insert(m);
    ship_.send_fifo(m, change);
  }
  if (txn.awaiting_acks.empty()) ship_round_done(txn_id);
}

void EagerPrimaryReplica::on_change_ack(sim::NodeId from, const EpChangeAck& ack) {
  const auto it = active_.find(ack.txn);
  if (it == active_.end()) return;
  Txn& txn = it->second;
  if (ack.op_index != txn.next_op) return;  // stale ack from an earlier op
  if (txn.awaiting_acks.erase(from) == 0) return;
  ++txn.acks;
  if (txn.awaiting_acks.empty()) ship_round_done(ack.txn);
}

void EagerPrimaryReplica::ship_round_done(const std::string& txn_id) {
  const Txn& txn = active_.at(txn_id);
  phase(txn.request.request_id, sim::Phase::AgreementCoord, txn.ac_start, now());
  span("core/ac.ship", txn.ac_start, now(), txn.request.request_id,
       obs::Attrs{{"acks", std::to_string(txn.acks)}});
  run_next_op(txn_id);
}

void EagerPrimaryReplica::start_commit(const std::string& txn_id) {
  Txn& txn = active_.at(txn_id);
  // Stage our own writes so commit application is uniform across roles.
  Staged& staged = staged_[txn_id];
  staged.shipper = id();
  staged.writes = txn.exec->writes();
  staged.client = txn.request.client;
  staged.result = txn.last_result;
  staged.ac_start = txn.ac_start;

  EpCommitMeta meta;
  meta.txn = txn_id;
  meta.request_id = txn.request.request_id;
  meta.client = txn.request.client;
  meta.result = txn.last_result;
  staged.request_id = txn.request.request_id;

  const auto participants = fd_.trusted();
  const auto client = txn.request.client;
  const auto request_id = txn.request.request_id;
  const auto result = txn.last_result;
  tpc_.coordinate(txn_id, participants, wire::to_blob(meta),
                  [this, client, request_id, result](const std::string& txn_id2, bool commit) {
                    if (!commit) {
                      monitor().abort_event(id(), now(), obs::AbortCause::Failover,
                                            request_id, "2pc-abort");
                    }
                    reply(client, request_id, commit, commit ? result : "aborted");
                    finish_txn(txn_id2);
                  });
}

void EagerPrimaryReplica::apply_commit(const std::string& txn_id, bool commit) {
  resolved_[txn_id] = commit;
  if (const auto git = staged_group_.find(txn_id); git != staged_group_.end()) {
    // Group commit: redo every entry in group order, one WAL flush and one
    // apply-cost charge for the whole group.
    std::vector<EpGroupEntry> entries = std::move(git->second);
    staged_group_.erase(git);
    if (!commit) {
      for (const auto& e : entries) wal_.abort(e.txn);
      return;
    }
    const auto apply_start = now();
    cpu_execute(kApplyCost, [this, txn_id, entries, apply_start] {
      for (const auto& e : entries) {
        wal_.begin(e.txn);
        for (const auto& [key, value] : e.writes) wal_.write(e.txn, key, value);
        wal_.commit(e.txn);
        install(e.txn, e.writes);
        cache_reply(e.request_id, true, e.result);
      }
      phase(txn_id, sim::Phase::AgreementCoord, apply_start, now());
      span("db/wal.flush", apply_start, now(), txn_id,
           obs::Attrs{{"group_ops", std::to_string(entries.size())},
                      {"lsn", std::to_string(wal_.last_lsn())}});
    });
    return;
  }
  const auto it = staged_.find(txn_id);
  if (it == staged_.end()) return;
  Staged staged = std::move(it->second);
  staged_.erase(it);
  if (!commit) {
    wal_.abort(txn_id);
    return;
  }
  const auto apply_start = now();
  cpu_execute(kApplyCost, [this, txn_id, staged, apply_start] {
    // Write-ahead: log the transaction before touching storage.
    wal_.begin(txn_id);
    for (const auto& [key, value] : staged.writes) wal_.write(txn_id, key, value);
    wal_.commit(txn_id);
    install(txn_id, staged.writes);
    // The reply cache is keyed by the client-visible request id.
    const auto& reply_key = staged.request_id.empty() ? txn_id : staged.request_id;
    cache_reply(reply_key, true, staged.result);
    phase(reply_key, sim::Phase::AgreementCoord, apply_start, now());
    span("db/wal.flush", apply_start, now(), reply_key,
         obs::Attrs{{"records", std::to_string(staged.writes.size() + 2)},
                    {"lsn", std::to_string(wal_.last_lsn())}});
  });
}

void EagerPrimaryReplica::on_primary_suspected(sim::NodeId who) {
  // Cooperative termination of the dead primary's in-doubt transactions.
  if (fd_.lowest_trusted() == sim::kNoNode) return;
  const auto in_doubt = tpc_.in_doubt();  // copy: we mutate below
  for (const auto& [txn_id, doubt] : in_doubt) {
    if (doubt.coordinator != who) continue;  // its coordinator is still alive
    if (resolved_.contains(txn_id) || term_waiting_.contains(txn_id)) continue;
    std::set<sim::NodeId> peers;
    for (const auto m : fd_.trusted()) {
      if (m != id()) peers.insert(m);
    }
    if (peers.empty()) {
      if (is_primary()) {
        monitor().abort_event(id(), now(), obs::AbortCause::Failover, txn_id,
                              "primary-crash-termination");
      }
      apply_commit(txn_id, false);
      continue;
    }
    term_waiting_.emplace(txn_id, peers);
    EpTermQuery query;
    query.txn = txn_id;
    for (const auto peer : peers) ship_.send_fifo(peer, query);
  }
  // Staged-but-never-prepared work from the dead primary is dropped; a
  // change shipped by a live primary stays, whoever else was suspected.
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (it->second.shipper == who && !tpc_.in_doubt().contains(it->first) &&
        !resolved_.contains(it->first) && !active_.contains(it->first)) {
      it = staged_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = staged_group_.begin(); it != staged_group_.end();) {
    if (!tpc_.in_doubt().contains(it->first) && !resolved_.contains(it->first) &&
        !active_groups_.contains(it->first)) {
      it = staged_group_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace repli::core

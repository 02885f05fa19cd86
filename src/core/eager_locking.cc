#include "core/eager_locking.hh"

#include <algorithm>
#include <utility>

#include "core/channels.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::core {

EagerLockingReplica::EagerLockingReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                                         EagerLockingConfig config)
    : ReplicaBase(id, sim, "eager-locking-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      link_(*this, kLockChannel),
      tpc_(*this, kTpcChannel),
      locks_(*this),
      config_(config),
      commit_batcher_(this->env().batch, *this, [this](std::vector<LkGroupEntry> members) {
        flush_commit_group(std::move(members));
      }) {
  add_component(fd_);
  add_component(link_);
  add_component(tpc_);

  link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
    if (const auto acquire = wire::message_cast<LkAcquire>(msg)) {
      local_acquire(from, *acquire);
      return;
    }
    if (const auto exec = wire::message_cast<LkExec>(msg)) {
      local_exec(from, *exec);
      return;
    }
    if (const auto reply = wire::message_cast<LkReply>(msg)) {
      on_lock_reply(from, *reply);
      return;
    }
    if (const auto done = wire::message_cast<LkExecDone>(msg)) {
      on_exec_done(from, *done);
      return;
    }
    if (const auto abort = wire::message_cast<LkAbort>(msg)) {
      local_abort(abort->txn, abort->attempt);
      return;
    }
  });

  tpc_.set_vote_handler([this](const std::string& group_id, const std::string& payload) {
    // Vote yes iff we hold EVERY member's locks and staged execution (one
    // missing member aborts the whole group — rare, since the delegate only
    // groups transactions whose EX phase completed at all replicas). The
    // membership is recorded regardless of the vote so an abort outcome can
    // release each member's locks.
    const auto meta = wire::message_cast<LkGroupMeta>(wire::from_blob(payload));
    util::ensure(meta != nullptr, "eager locking: 2PC prepare without a commit group");
    bool all = true;
    std::vector<std::string> members;
    for (const auto& entry : meta->entries) {
      members.push_back(entry.txn);
      if (const auto pit = parts_.find(entry.txn); pit != parts_.end()) {
        pit->second.client = entry.client;
        pit->second.result = entry.result;
      } else {
        all = false;
      }
    }
    commit_groups_[group_id] = std::move(members);
    return all;
  });
  // A suspicion is final in the fault model (crash-stop; partitions heal
  // before kFdTimeout), so a driven transaction stops waiting for the
  // suspect's lock grant or execution.
  fd_.on_suspect([this](sim::NodeId who) {
    std::vector<std::string> ready;
    for (auto& [txn_id, drive] : driving_) {
      if (drive.awaiting.erase(who) > 0 && drive.awaiting.empty()) ready.push_back(txn_id);
    }
    for (const auto& txn_id : ready) {
      const auto it = driving_.find(txn_id);
      if (it == driving_.end()) continue;
      if (it->second.executing) {
        executed_everywhere(txn_id);
      } else {
        locked_everywhere(txn_id);
      }
    }
  });
  tpc_.set_outcome_handler([this](const std::string& group_id, bool commit) {
    // A participant that never saw the prepare (the coordinator's vote
    // timeout beat it) knows the group only by its id, the first member's.
    std::vector<std::string> members{group_id};
    if (const auto git = commit_groups_.find(group_id); git != commit_groups_.end()) {
      members = std::move(git->second);
      commit_groups_.erase(git);
    }
    for (const auto& member : members) local_outcome(member, commit);
  });
}

void EagerLockingReplica::on_unhandled(sim::NodeId /*from*/, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) {
    on_request(*request);
  }
}

void EagerLockingReplica::on_request(const ClientRequest& request) {
  if (replay_cached_reply(request.client, request.request_id)) return;
  if (driving_.contains(request.request_id)) return;
  // A client retry landing at a second replica must not spawn a second
  // driver: whoever drove the transaction first keeps owning it.
  if (const auto oit = owner_.find(request.request_id);
      oit != owner_.end() && oit->second != id()) {
    return;
  }

  note_request_trace(request.request_id);
  Drive drive;
  drive.request = request;
  // Wait-die needs a stable age: assigned at first contact, kept across
  // retries so an unlucky transaction eventually becomes the oldest.
  drive.priority = now() * 16 + id();
  driving_.emplace(request.request_id, std::move(drive));
  drive_next_op(request.request_id);
}

void EagerLockingReplica::drive_next_op(const std::string& txn_id) {
  auto& drive = driving_.at(txn_id);
  if (drive.next_op >= drive.request.ops.size()) {
    start_commit(txn_id);
    return;
  }
  // SC phase for this operation: lock at every replica.
  const auto& op = drive.request.ops[drive.next_op];
  LkAcquire acquire;
  acquire.txn = txn_id;
  acquire.priority = drive.priority;  // older transactions win deadlocks
  acquire.op_index = static_cast<std::uint32_t>(drive.next_op);
  acquire.attempt = static_cast<std::uint32_t>(drive.attempt);
  acquire.plan = op.lock_plan();

  drive.sc_start = now();
  if (!op.read_only()) drive.wrote = true;
  // Read-one/write-all: a read-only operation locks only the local copy.
  fan_out(drive, false, config_.read_one_write_all && op.read_only(), acquire,
          &EagerLockingReplica::local_acquire);
}

template <class Msg>
void EagerLockingReplica::fan_out(Drive& drive, bool executing, bool local_only, const Msg& msg,
                                  void (EagerLockingReplica::*local)(sim::NodeId, const Msg&)) {
  drive.executing = executing;
  drive.awaiting.clear();
  for (const auto m : group().members()) {
    if (fd_.suspects(m)) continue;
    if (local_only && m != id()) continue;
    drive.awaiting.insert(m);
    if (m == id()) {
      (this->*local)(id(), msg);
    } else {
      link_.send_reliable(m, msg);
    }
  }
}

void EagerLockingReplica::local_acquire(sim::NodeId delegate, const LkAcquire& acquire) {
  const auto oit = owner_.emplace(acquire.txn, delegate).first;
  if (oit->second != delegate) return;  // a different delegate owns this txn
  if (const auto ait = aborted_upto_.find(acquire.txn);
      ait != aborted_upto_.end() && acquire.attempt <= ait->second) {
    return;  // late acquire of an attempt that was already aborted here
  }
  auto pit = parts_.find(acquire.txn);
  if (pit != parts_.end() && pit->second.attempt > acquire.attempt) return;  // stale
  if (pit != parts_.end() && pit->second.attempt < acquire.attempt) {
    // A newer attempt supersedes whatever this site still holds.
    local_abort(acquire.txn, pit->second.attempt);
    pit = parts_.end();
  }
  if (pit == parts_.end()) {
    Part part;
    part.attempt = acquire.attempt;
    part.exec = std::make_unique<db::TxnExec>(acquire.txn, storage_);
    pit = parts_.emplace(acquire.txn, std::move(part)).first;
  }
  // Remember the causal trace this acquire arrived under: a contended lock's
  // grant callback fires from the *releasing* transaction's event, and the
  // reply it triggers must re-enter this transaction's trace.
  note_request_trace(acquire.txn);

  // Acquire the plan's locks one after another; when the whole plan is
  // held, report the grant to the delegate.
  auto plan = std::make_shared<std::vector<std::pair<db::Key, bool>>>(acquire.plan);
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  const std::string txn = acquire.txn;
  const auto op_index = acquire.op_index;
  const auto attempt = acquire.attempt;
  const auto priority = acquire.priority;
  auto respond = [this, txn, op_index, attempt, delegate](bool granted) {
    TraceResume resume{*this, txn};
    LkReply reply;
    reply.txn = txn;
    reply.op_index = op_index;
    reply.attempt = attempt;
    reply.granted = granted;
    if (delegate == id()) {
      // Deliver on a fresh event: lock-manager callbacks may fire while the
      // delegate is mid-loop in drive_next_op, and re-entering its driver
      // state synchronously would mutate structures under iteration.
      set_timer(0, [this, reply] { on_lock_reply(id(), reply); });
    } else {
      link_.send_reliable(delegate, reply);
    }
  };
  // The closure holds itself weakly (a strong self-capture is a cycle that
  // leaks every plan): the caller keeps it alive — this function for the
  // first step, the lock manager's pending grant callback after that.
  *step = [this, plan, self = std::weak_ptr(step), txn, attempt, priority,
           respond](std::size_t i) {
    const auto step = self.lock();
    // Re-enter the transaction's own trace: a contended grant resumes here
    // from the releasing transaction's event.
    TraceResume resume{*this, txn};
    const auto it = parts_.find(txn);
    if (it == parts_.end() || it->second.attempt != attempt) return;  // aborted meanwhile
    if (i == plan->size()) {
      respond(true);
      return;
    }
    const auto& [key, exclusive] = (*plan)[i];
    locks_.acquire(txn, priority, key,
                   exclusive ? db::LockMode::Exclusive : db::LockMode::Shared,
                   [step, i] { (*step)(i + 1); },
                   [this, txn, attempt, respond] {
                     // Deadlock victim or wait timeout: deny; the delegate
                     // aborts the transaction globally and retries.
                     metrics().incr("core.lock_aborts");
                     local_abort(txn, attempt);
                     respond(false);
                   });
  };
  (*step)(0);
}

void EagerLockingReplica::on_lock_reply(sim::NodeId from, const LkReply& reply) {
  const auto it = driving_.find(reply.txn);
  if (it == driving_.end()) return;
  Drive& drive = it->second;
  if (reply.attempt != static_cast<std::uint32_t>(drive.attempt)) return;  // stale
  if (drive.executing || reply.op_index != drive.next_op) return;
  if (!reply.granted) {
    abort_and_retry(reply.txn);
    return;
  }
  drive.awaiting.erase(from);
  if (drive.awaiting.empty()) locked_everywhere(reply.txn);
}

void EagerLockingReplica::locked_everywhere(const std::string& txn_id) {
  Drive& drive = driving_.at(txn_id);
  phase(txn_id, sim::Phase::ServerCoord, drive.sc_start, now());

  // EX phase: every locked replica executes the operation (under ROWA a
  // read-only operation runs at the delegate only).
  LkExec exec;
  exec.txn = txn_id;
  exec.op_index = static_cast<std::uint32_t>(drive.next_op);
  exec.attempt = static_cast<std::uint32_t>(drive.attempt);
  exec.op = drive.request.ops[drive.next_op];
  fan_out(drive, true, config_.read_one_write_all && exec.op.read_only(), exec,
          &EagerLockingReplica::local_exec);
}

void EagerLockingReplica::local_exec(sim::NodeId delegate, const LkExec& exec) {
  const auto exec_start = now();
  cpu_execute(kExecCost, [this, delegate, exec, exec_start] {
    const auto it = parts_.find(exec.txn);
    if (it == parts_.end() || it->second.attempt != exec.attempt) return;  // aborted
    db::SeededChoices choices(wire::fnv1a(exec.txn) + exec.op_index);
    std::string result;
    try {
      result = it->second.exec->run(registry(), exec.op, choices);
    } catch (const std::exception&) {
      result = "error";
    }
    it->second.result = result;
    phase(exec.txn, sim::Phase::Execution, exec_start, now());
    exec_span(exec.op, exec_start, exec.txn);
    LkExecDone done;
    done.txn = exec.txn;
    done.op_index = exec.op_index;
    done.attempt = exec.attempt;
    if (delegate == id()) {
      on_exec_done(id(), done);
    } else {
      link_.send_reliable(delegate, done);
    }
  });
}

void EagerLockingReplica::on_exec_done(sim::NodeId from, const LkExecDone& done) {
  const auto it = driving_.find(done.txn);
  if (it == driving_.end()) return;
  Drive& drive = it->second;
  if (done.attempt != static_cast<std::uint32_t>(drive.attempt)) return;
  if (!drive.executing || done.op_index != drive.next_op) return;
  drive.awaiting.erase(from);
  if (drive.awaiting.empty()) executed_everywhere(done.txn);
}

void EagerLockingReplica::executed_everywhere(const std::string& txn_id) {
  Drive& drive = driving_.at(txn_id);
  if (parts_.contains(txn_id)) drive.last_result = parts_.at(txn_id).result;
  ++drive.next_op;
  drive_next_op(txn_id);
}

void EagerLockingReplica::abort_and_retry(const std::string& txn_id) {
  auto& drive = driving_.at(txn_id);
  const auto aborted_attempt = static_cast<std::uint32_t>(drive.attempt);
  ++drive.attempt;  // fences every message of the aborted attempt
  monitor().abort_event(id(), now(), obs::AbortCause::Deadlock, txn_id, "wait-die");
  // Global abort: every replica drops the transaction and releases locks.
  for (const auto m : group().members()) {
    if (m == id()) {
      local_abort(txn_id, aborted_attempt);
    } else {
      LkAbort abort;
      abort.txn = txn_id;
      abort.attempt = aborted_attempt;
      link_.send_reliable(m, abort);
    }
  }
  if (drive.attempt > config_.max_attempts) {
    reply(drive.request.client, txn_id, false, "lock-abort");
    driving_.erase(txn_id);
    return;
  }
  drive.next_op = 0;
  drive.executing = false;
  drive.awaiting.clear();
  const auto backoff =
      static_cast<sim::Time>(sim().rng().exponential(static_cast<double>(kLockRetryBackoff))) +
      sim::kMsec;
  const auto aborted_at = now();
  set_timer(backoff, [this, txn_id, aborted_at] {
    if (!driving_.contains(txn_id)) return;
    // The backoff is on the critical path (the retry cannot start sooner) but
    // fires from a bare timer — no incoming flow re-enters the trace, so
    // resume it explicitly and span the wait, or the whole backoff shows up
    // as unattributed time in the latency waterfall.
    TraceResume resume{*this, txn_id};
    span("core/lock.retry_backoff", aborted_at, now(), txn_id,
         obs::Attrs{{"attempt", std::to_string(driving_.at(txn_id).attempt)}});
    drive_next_op(txn_id);
  });
}

void EagerLockingReplica::local_abort(const std::string& txn_id, std::uint32_t attempt) {
  auto& high_water = aborted_upto_[txn_id];
  high_water = std::max(high_water, attempt);
  const auto it = parts_.find(txn_id);
  if (it == parts_.end() || it->second.attempt > attempt) return;  // newer attempt lives on
  parts_.erase(it);
  locks_.release_all(txn_id);
}

void EagerLockingReplica::start_commit(const std::string& txn_id) {
  const Drive& drive = driving_.at(txn_id);
  LkGroupEntry member{txn_id, drive.request.client, drive.last_result};
  // ROWA: an entirely read-only transaction involved no other site, so it
  // commits as a group of one at the delegate alone (no 2PC round trip for
  // queries).
  if (config_.read_one_write_all && !drive.wrote) {
    commit_group({std::move(member)}, {id()});
    return;
  }
  // Group commit: commit-ready write transactions wait (bounded by the flush
  // window) to share one 2PC round; a batch of one flushes at once.
  commit_batcher_.add(std::move(member));
}

void EagerLockingReplica::flush_commit_group(std::vector<LkGroupEntry> members) {
  commit_group(std::move(members), fd_.trusted());
}

void EagerLockingReplica::commit_group(std::vector<LkGroupEntry> members,
                                       const std::vector<sim::NodeId>& participants) {
  metrics().histogram("core.group_commit.occupancy")
      .observe(static_cast<double>(members.size()));
  const std::string group_id = members.front().txn;
  span_now("core/group_commit.start", group_id,
           obs::Attrs{{"occupancy", std::to_string(members.size())}});
  LkGroupMeta meta;
  meta.entries = members;
  tpc_.coordinate(group_id, participants, wire::to_blob(meta),
                  [this, members](const std::string& /*group_id*/, bool commit) {
                    for (const auto& m : members) {
                      reply(m.client, m.txn, commit, commit ? m.result : "aborted");
                      driving_.erase(m.txn);
                    }
                  });
}

void EagerLockingReplica::local_outcome(const std::string& txn_id, bool commit) {
  const auto it = parts_.find(txn_id);
  if (it == parts_.end()) return;
  if (!commit) {
    local_abort(txn_id, it->second.attempt);
    return;
  }
  auto part = std::make_shared<Part>(std::move(it->second));
  parts_.erase(it);
  const auto apply_start = now();
  cpu_execute(kApplyCost, [this, txn_id, part, apply_start] {
    install(txn_id, part->exec->writes(), part->exec->read_versions());
    cache_reply(txn_id, true, part->result);
    locks_.release_all(txn_id);
    phase(txn_id, sim::Phase::AgreementCoord, apply_start, now());
    span("db/exec.apply", apply_start, now(), txn_id,
         obs::Attrs{{"writes", std::to_string(part->exec->writes().size())}});
  });
}

}  // namespace repli::core

// Eager primary copy replication, §4.3 / Fig. 7 (single-op) and §5.2 /
// Fig. 12 (multi-operation transactions).
//
//   RE  client sends to the primary
//   EX  primary executes an operation
//   AC  primary ships the change (log records) to the secondaries over a
//       FIFO channel and waits for their acks — repeated per operation for
//       multi-op transactions — then runs 2PC to commit everywhere
//   END primary answers the client
//
// Hot-standby semantics: when the primary crashes, the next replica takes
// over; in-doubt transactions of the dead primary are resolved among the
// survivors (commit if anyone saw the commit decision, abort otherwise) —
// the paper's "if the primary fails, all active transactions are aborted".
// A backup suspected while the primary awaits its ship ack is dropped from
// the round (suspicion is final under crash-stop), so its crash costs one
// detection period, not the transaction.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/replica.hh"
#include "db/tpc.hh"
#include "db/wal.hh"
#include "gcs/fd.hh"
#include "gcs/fifo.hh"

namespace repli::core {

struct EpChange : wire::MessageBase<EpChange> {
  static constexpr const char* kTypeName = "core.EpChange";
  std::string txn;
  std::uint32_t op_index = 0;
  std::map<db::Key, db::Value> writes;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(op_index);
    ar(writes);
  }
};

struct EpChangeAck : wire::MessageBase<EpChangeAck> {
  static constexpr const char* kTypeName = "core.EpChangeAck";
  std::string txn;
  std::uint32_t op_index = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(op_index);
  }
};

struct EpCommitMeta : wire::MessageBase<EpCommitMeta> {
  static constexpr const char* kTypeName = "core.EpCommitMeta";
  std::string txn;
  std::string request_id;  // the client-visible id (reply-cache key)
  std::int32_t client = 0;
  std::string result;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(request_id);
    ar(client);
    ar(result);
  }
};

/// One transaction inside a group commit: everything a secondary needs to
/// redo it and answer a retried client (reply-cache entry).
struct EpGroupEntry {
  std::string txn;         // internal id
  std::string request_id;  // client-visible id (reply-cache key)
  std::int32_t client = 0;
  std::string result;
  std::map<db::Key, db::Value> writes;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(request_id);
    ar(client);
    ar(result);
    ar(writes);
  }
};

/// Group commit (batched fast path): N transactions executed serially at the
/// primary, shipped and committed with ONE 2PC round. The blob of this
/// message is the 2PC prepare payload — the ship round is folded into
/// prepare, amortizing the agreement cost over the whole group.
struct EpGroupChange : wire::MessageBase<EpGroupChange> {
  static constexpr const char* kTypeName = "core.EpGroupChange";
  std::string group;  // group id (the 2PC transaction id)
  std::vector<EpGroupEntry> entries;
  template <class Ar>
  void fields(Ar& ar) {
    ar(group);
    ar(entries);
  }
};

struct EpTermQuery : wire::MessageBase<EpTermQuery> {
  static constexpr const char* kTypeName = "core.EpTermQuery";
  std::string txn;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
  }
};

struct EpTermInfo : wire::MessageBase<EpTermInfo> {
  static constexpr const char* kTypeName = "core.EpTermInfo";
  std::string txn;
  std::int32_t knowledge = 0;  // 0 unknown, 1 commit, 2 abort
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(knowledge);
  }
};

class EagerPrimaryReplica : public ReplicaBase {
 public:
  EagerPrimaryReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env);

  sim::NodeId current_primary() const { return fd_.lowest_trusted(); }
  bool is_primary() const { return current_primary() == id(); }
  /// The local redo log: every committed transaction's records, in commit
  /// order (what a real primary would ship / a secondary would redo from).
  const db::Wal& wal() const { return wal_; }

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  struct Txn {
    std::string id;  // internal id, unique per acceptance (a retried request
                     // aborted by the termination protocol gets a fresh one)
    ClientRequest request;
    std::size_t next_op = 0;
    std::unique_ptr<db::TxnExec> exec;
    std::set<sim::NodeId> awaiting_acks;
    std::size_t acks = 0;  // ship acks received in the current round
    std::string last_result;
    sim::Time ac_start = 0;
  };

  // Group commit (env().batch.batching()): requests drained from the queue
  // are executed serially against a scratch copy of storage, then committed
  // together with one 2PC round (EpGroupChange as the prepare payload).
  struct GroupTxn {
    std::string id;  // 2PC transaction id for the whole group
    std::vector<ClientRequest> requests;
    std::size_t next = 0;
    db::Storage scratch;  // accumulates the group's writes pre-commit
    std::vector<EpGroupEntry> entries;
  };

  void on_request(const ClientRequest& request);
  void pump();
  /// Closes the core/queue.wait span for a request leaving the admit queue.
  void close_queue_wait(const std::string& request_id);
  void finish_txn(const std::string& txn_id);
  void run_next_op(const std::string& txn_id);
  void ship_changes(const std::string& txn_id);
  void on_change_ack(sim::NodeId from, const EpChangeAck& ack);
  /// Every awaited backup acked or was suspected: close the ship round and
  /// run the next operation (or commit).
  void ship_round_done(const std::string& txn_id);
  void start_commit(const std::string& txn_id);
  void apply_commit(const std::string& txn_id, bool commit);
  void on_primary_suspected(sim::NodeId who);
  void start_group();
  void run_group_step(const std::string& group_id);
  void group_commit(const std::string& group_id);

  gcs::FailureDetector fd_;
  gcs::FifoChannel ship_;
  db::TwoPhaseCommit tpc_;
  db::Wal wal_;

  // The primary processes transactions serially: each sees its
  // predecessor's committed state (the primary's concurrency control).
  std::deque<ClientRequest> queue_;
  std::set<std::string> queued_ids_;
  std::map<std::string, sim::Time> queued_at_;  // enqueue time (core/queue.wait span)
  bool busy_ = false;
  std::uint64_t accept_seq_ = 0;  // makes internal txn ids unique
  std::map<std::string, std::string> request_of_txn_;  // txn id -> request id
  std::map<std::string, Txn> active_;  // primary-side (at most one entry)
  struct Staged {
    sim::NodeId shipper = sim::kNoNode;  // the primary that shipped the change
    std::map<db::Key, db::Value> writes;
    std::string request_id;
    std::int32_t client = 0;
    std::string result;
    sim::Time ac_start = 0;
  };
  std::map<std::string, Staged> staged_;           // both sides: pre-commit writes
  std::map<std::string, bool> resolved_;           // txn -> final outcome seen here
  std::map<std::string, std::set<sim::NodeId>> term_waiting_;  // termination protocol
  std::map<std::string, GroupTxn> active_groups_;  // primary-side (at most one)
  std::map<std::string, std::vector<EpGroupEntry>> staged_group_;  // pre-commit groups
  std::set<std::string> group_inflight_;  // request ids inside an active group
};

}  // namespace repli::core

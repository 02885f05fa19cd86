// Eager update-everywhere with distributed locking, §4.4.1 / Fig. 8
// (single-op) and §5.4.1 / Fig. 13 (multi-operation transactions).
//
//   RE  client sends to its local server (the delegate)
//   SC  the delegate requests locks at *all* replicas; each site's lock
//       manager grants per local state — repeated per operation
//   EX  all replicas execute the operation (deterministically seeded)
//   AC  2PC commits or aborts the transaction everywhere, releasing locks
//   END the delegate answers the client
//
// Distributed deadlocks are prevented by wait-die at each site's lock
// manager (a requester younger than an incompatible holder aborts instead
// of waiting; db/lock.hh), with local wait-for-graph detection and the wait
// timeout as backstops for the cycles wait-die lets through. A denied lock
// aborts the transaction globally and the delegate retries after a
// randomized backoff (the paper: "the transaction can be delayed and the
// request repeated").
#pragma once

#include <map>
#include <memory>
#include <set>

#include "core/replica.hh"
#include "db/lock.hh"
#include "db/tpc.hh"
#include "gcs/fd.hh"
#include "gcs/link.hh"

namespace repli::core {

struct LkAcquire : wire::MessageBase<LkAcquire> {
  static constexpr const char* kTypeName = "core.LkAcquire";
  std::string txn;
  std::int64_t priority = 0;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 1;
  std::vector<std::pair<db::Key, bool>> plan;  // (key, exclusive?)
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(priority);
    ar(op_index);
    ar(attempt);
    ar(plan);
  }
};

struct LkReply : wire::MessageBase<LkReply> {
  static constexpr const char* kTypeName = "core.LkReply";
  std::string txn;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 1;
  bool granted = false;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(op_index);
    ar(attempt);
    ar(granted);
  }
};

struct LkExec : wire::MessageBase<LkExec> {
  static constexpr const char* kTypeName = "core.LkExec";
  std::string txn;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 1;
  db::Operation op;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(op_index);
    ar(attempt);
    ar(op);
  }
};

struct LkExecDone : wire::MessageBase<LkExecDone> {
  static constexpr const char* kTypeName = "core.LkExecDone";
  std::string txn;
  std::uint32_t op_index = 0;
  std::uint32_t attempt = 1;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(op_index);
    ar(attempt);
  }
};

struct LkAbort : wire::MessageBase<LkAbort> {
  static constexpr const char* kTypeName = "core.LkAbort";
  std::string txn;
  std::uint32_t attempt = 1;  // aborts this attempt and everything older
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(attempt);
  }
};

/// One member of a commit group.
struct LkGroupEntry {
  std::string txn;
  std::int32_t client = 0;
  std::string result;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(client);
    ar(result);
  }
};

/// The 2PC prepare payload: the delegate commits its commit-ready
/// transactions in groups of up to batch.max through ONE 2PC round,
/// whose id is the first member's txn id (a group of one commits under its
/// own id). Each participant votes yes iff it holds every member's locks
/// and staged execution.
struct LkGroupMeta : wire::MessageBase<LkGroupMeta> {
  static constexpr const char* kTypeName = "core.LkGroupMeta";
  std::vector<LkGroupEntry> entries;
  template <class Ar>
  void fields(Ar& ar) {
    ar(entries);
  }
};

// Mean of the randomized backoff before a lock-aborted transaction retries.
inline constexpr sim::Time kLockRetryBackoff = 20 * sim::kMsec;

struct EagerLockingConfig {
  int max_attempts = 10;
  /// Read-one/write-all (§5.4.1, [BHG87]): read-only operations lock and
  /// execute at the delegate only; writes still involve every replica.
  bool read_one_write_all = true;
};

class EagerLockingReplica : public ReplicaBase {
 public:
  EagerLockingReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                      EagerLockingConfig config = {});

  std::size_t lock_waiters() const override { return locks_.waiting_count(); }

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  // Delegate-side transaction driver.
  struct Drive {
    ClientRequest request;
    std::size_t next_op = 0;
    int attempt = 1;
    std::int64_t priority = 0;  // assigned once; kept across retries (wait-die)
    bool wrote = false;         // any write op so far (ROWA: read-only txns commit locally)
    std::set<sim::NodeId> awaiting;  // lock grants / exec dones outstanding
    bool executing = false;          // false: SC (locks), true: EX
    std::string last_result;
    sim::Time sc_start = 0;
  };
  // Participant-side state (every replica, including the delegate).
  struct Part {
    std::uint32_t attempt = 1;  // fences stale messages from aborted attempts
    std::unique_ptr<db::TxnExec> exec;
    std::int32_t client = 0;
    std::string result;
  };

  void on_request(const ClientRequest& request);
  void drive_next_op(const std::string& txn_id);
  /// Starts the current operation's lock round (`executing` false) or
  /// execution round (true): awaits every site not suspected, or only this
  /// one when `local_only`, handing `msg` to `local` here and sending it to
  /// the others, in member order.
  template <class Msg>
  void fan_out(Drive& drive, bool executing, bool local_only, const Msg& msg,
               void (EagerLockingReplica::*local)(sim::NodeId, const Msg&));
  void on_lock_reply(sim::NodeId from, const LkReply& reply);
  void on_exec_done(sim::NodeId from, const LkExecDone& done);
  /// Every awaited site granted the current operation's locks: start EX.
  void locked_everywhere(const std::string& txn_id);
  /// Every awaited site executed the current operation: drive the next one.
  void executed_everywhere(const std::string& txn_id);
  void abort_and_retry(const std::string& txn_id);
  void start_commit(const std::string& txn_id);
  void flush_commit_group(std::vector<LkGroupEntry> members);
  void commit_group(std::vector<LkGroupEntry> members,
                    const std::vector<sim::NodeId>& participants);

  void local_acquire(sim::NodeId delegate, const LkAcquire& acquire);
  void local_exec(sim::NodeId delegate, const LkExec& exec);
  void local_abort(const std::string& txn_id, std::uint32_t attempt);
  void local_outcome(const std::string& txn_id, bool commit);

  gcs::FailureDetector fd_;
  gcs::ReliableLink link_;
  db::TwoPhaseCommit tpc_;
  db::LockManager locks_;
  EagerLockingConfig config_;

  std::map<std::string, Drive> driving_;
  std::map<std::string, Part> parts_;
  // First delegate seen for a transaction owns it at this site for the whole
  // run: acquires/execs/aborts from any other delegate are ignored, and a
  // client retry landing here does not spawn a competing driver.
  std::map<std::string, sim::NodeId> owner_;
  // Highest attempt number already aborted here, per txn: an in-flight
  // LkAcquire of an aborted attempt must not take zombie locks.
  std::map<std::string, std::uint32_t> aborted_upto_;

  // Group commit: commit-ready write transactions gather here until the
  // group holds batch.max of them or the flush window expires.
  sim::Batcher<LkGroupEntry> commit_batcher_;
  // Both sides: group id -> member txns, recorded at prepare so the 2PC
  // outcome can be fanned out per member.
  std::map<std::string, std::vector<std::string>> commit_groups_;
};

}  // namespace repli::core

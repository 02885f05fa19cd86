// Asynchronous lock manager: shared/exclusive key locks with FIFO-fair
// queuing, lock upgrade, wait-die deadlock prevention, wait-for-graph
// deadlock detection (youngest victim aborts), and a wait-timeout backstop.
// Grant and abort outcomes are reported through callbacks because lock
// waits in a replicated setting span message exchanges.
//
// Wait-die: a requester younger (higher priority number) than an
// incompatible holder aborts at once instead of waiting, so every wait on an
// incompatible holder runs old -> young. That does not rule out every cycle:
// a shared request queued (FIFO) behind an older exclusive waiter also waits
// for the shared holders ahead of it, whatever their age. Example: `mid`
// holds S on k and `young` holds X on j; `oldest` waits for X on k, `young`
// queues for S on k, and `mid` then requests X on j — mid -> young -> mid.
// Local wait-for-graph detection breaks such a cycle by aborting `young`;
// a cycle of this shape that spans sites is invisible to every single lock
// manager and is left to the wait timeout.
//
// Internally, keys are interned to dense uint32 ids (util/intern.hh) and
// the lock table is a flat vector indexed by key id — the string-keyed
// std::map this replaced re-compared key strings on every lookup and
// allocated a node per insert; see docs/ARCHITECTURE.md "Interned keys".
// A transaction is tracked from its first acquire until release_all, in a
// map from txn id to its state: holders and waiters point at the state, so
// a manager that has seen a million transactions keeps only the live ones.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/storage.hh"
#include "obs/trace.hh"
#include "sim/process.hh"
#include "util/intern.hh"
#include "util/smallfn.hh"

namespace repli::db {

using TxnId = std::string;

enum class LockMode { Shared, Exclusive };

// How long a request may wait before it aborts: the backstop against
// cycles no single lock manager sees (see the header comment).
inline constexpr sim::Time kLockWaitTimeout = 500 * sim::kMsec;

class LockManager {
 public:
  // Move-only with inline captures: a queued request owns its callbacks
  // and nothing copies them, so the common captures cost no allocation.
  using GrantFn = util::SmallFn;
  using AbortFn = util::SmallFn;

  /// `host` provides timers for the wait-timeout backstop.
  explicit LockManager(sim::Process& host);

  /// Requests `mode` on `key` for `txn` (priority = age; smaller is older
  /// and wins deadlocks). Exactly one of `granted`/`aborted` fires, possibly
  /// synchronously. A transaction may hold at most one outstanding request.
  void acquire(const TxnId& txn, std::int64_t priority, const Key& key, LockMode mode,
               GrantFn granted, AbortFn aborted);

  /// Releases everything `txn` holds, cancels its pending request and
  /// forgets the transaction.
  void release_all(const TxnId& txn);

  bool holds(const TxnId& txn, const Key& key, LockMode mode) const;
  std::size_t waiting_count() const { return waiting_count_; }
  /// Transactions holding or waiting for a lock.
  std::size_t tracked_txns() const { return txns_.size(); }

 private:
  using Id = util::Interner::Id;
  static constexpr Id kNone = util::Interner::kNoId;

  struct TxnState;
  struct Request {
    TxnState* txn = nullptr;
    std::int64_t priority = 0;
    LockMode mode = LockMode::Shared;
    GrantFn granted;
    AbortFn aborted;
    sim::Process::TimerId timeout = sim::Process::kNoTimer;
    obs::SpanId wait_span = obs::kNoSpan;  // open db/lock.wait span
  };
  struct KeyLock {
    // Holders in acquisition order; few per key, so linear scans beat the
    // node-based map they replaced.
    std::vector<std::pair<TxnState*, LockMode>> holders;
    std::list<Request> waiters;
  };
  /// A transaction from its first acquire until release_all erases it. The
  /// map node keeps it in place for the holders and waiters that point at
  /// it.
  struct TxnState {
    const TxnId* name = nullptr;  // the map key
    std::vector<Id> held;         // keys locked, acquisition order
    Id waiting_on = kNone;        // key of the pending request
    std::int64_t priority = 0;
    // The first-seen priority sticks. Unset while release_all runs, so the
    // rest of the txn's locks count as an oldest holder's.
    bool priority_set = false;
  };

  static bool compatible(LockMode held, LockMode wanted) {
    return held == LockMode::Shared && wanted == LockMode::Shared;
  }
  KeyLock& lock_at(Id key);
  static bool can_grant(const KeyLock& kl, const TxnState* txn, LockMode mode);
  static std::int64_t holder_priority(const TxnState& txn);
  void pump(Id key);
  /// Builds waits-for edges and aborts the youngest transaction on a cycle.
  void detect_deadlock(TxnState* waiter);
  /// DFS over waits-for edges; `path` is the txn chain walked so far.
  bool walk_cycle(const TxnState* txn, std::vector<TxnState*>& path) const;
  void abort_waiter(Id key, TxnState* txn);
  /// Ends a queued request's db/lock.wait span and records the wait time.
  void close_wait_span(Request& req, const char* outcome);

  sim::Process& host_;
  util::Interner key_names_;
  std::vector<KeyLock> locks_;  // indexed by interned key id
  std::unordered_map<TxnId, TxnState> txns_;
  /// The deadlock walk's path, cleared and reused per call, so the steady
  /// state allocates nothing.
  std::vector<TxnState*> path_;
  /// pump's grant batch, reused across calls. pump takes it with
  /// std::exchange (a grant callback can re-enter pump) and hands it back.
  std::vector<Request> grant_buf_;
  std::size_t waiting_count_ = 0;
};

}  // namespace repli::db

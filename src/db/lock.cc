#include "db/lock.hh"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "obs/profile.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::db {

LockManager::LockManager(sim::Process& host) : host_(host) {}

LockManager::KeyLock& LockManager::lock_at(Id key) {
  if (key >= locks_.size()) locks_.resize(key + 1);
  return locks_[key];
}

void LockManager::close_wait_span(Request& req, const char* outcome) {
  if (req.wait_span == obs::kNoSpan) return;
  auto& tracer = host_.sim().tracer();
  tracer.attr(req.wait_span, "outcome", outcome);
  tracer.end(req.wait_span, host_.now());
  const obs::Span* span = tracer.find(req.wait_span);
  host_.sim().metrics().histogram("db.lock.wait_us")
      .observe(static_cast<double>(span->end - span->start));
  req.wait_span = obs::kNoSpan;
}

bool LockManager::can_grant(const KeyLock& kl, const TxnState* txn, LockMode mode) {
  for (const auto& [holder, held_mode] : kl.holders) {
    if (holder == txn) continue;  // self-compatibility handled by caller
    if (mode == LockMode::Exclusive || held_mode == LockMode::Exclusive) return false;
  }
  return true;
}

void LockManager::acquire(const TxnId& txn, std::int64_t priority, const Key& key, LockMode mode,
                          GrantFn granted, AbortFn aborted) {
  obs::ProfScope prof(obs::CostCenter::LockMgr);
  const auto [entry, fresh] = txns_.try_emplace(txn);
  TxnState* const state = &entry->second;
  if (fresh) state->name = &entry->first;
  const Id key_id = key_names_.intern(key);
  util::ensure(state->waiting_on == kNone,
               "LockManager::acquire: transaction already has a pending request");
  if (!state->priority_set) {  // first-seen priority sticks
    state->priority = priority;
    state->priority_set = true;
  }
  KeyLock& kl = lock_at(key_id);

  // Re-entrant cases: already holding a sufficient lock.
  const auto held_it = std::find_if(kl.holders.begin(), kl.holders.end(),
                                    [&](const auto& h) { return h.first == state; });
  if (held_it != kl.holders.end()) {
    if (held_it->second == LockMode::Exclusive || mode == LockMode::Shared) {
      obs::ProfScope cb(obs::CostCenter::Technique);
      granted();
      return;
    }
    // Upgrade S -> X: possible when we are the only holder and no waiter
    // already queued an upgrade.
    if (kl.holders.size() == 1 && can_grant(kl, state, LockMode::Exclusive)) {
      held_it->second = LockMode::Exclusive;
      obs::ProfScope cb(obs::CostCenter::Technique);
      granted();
      return;
    }
  } else if (kl.waiters.empty() && can_grant(kl, state, mode)) {
    // FIFO fairness: jump the queue only when it is empty.
    kl.holders.emplace_back(state, mode);
    state->held.push_back(key_id);
    obs::ProfScope cb(obs::CostCenter::Technique);
    granted();
    return;
  }

  // Wait-die: die instead of waiting behind an older transaction's lock.
  for (const auto& [holder, held_mode] : kl.holders) {
    if (holder == state) continue;
    const bool incompatible = mode == LockMode::Exclusive || held_mode == LockMode::Exclusive;
    if (incompatible && priority > holder_priority(*holder)) {
      host_.sim().metrics().incr("db.lock.wait_die_aborts");
      host_.sim().tracer().instant(host_.id(), "db/lock.wait_die", host_.now(), txn,
                                   obs::Attrs{{"key", key}});
      obs::ProfScope cb(obs::CostCenter::Technique);
      aborted();
      return;
    }
  }

  Request req;
  req.txn = state;
  req.priority = priority;
  req.mode = mode;
  req.granted = std::move(granted);
  req.aborted = std::move(aborted);
  req.timeout = host_.set_timer(kLockWaitTimeout, [this, key_id, state] {
    util::log_debug("lock: wait timeout, aborting ", *state->name);
    abort_waiter(key_id, state);
  });
  auto& tracer = host_.sim().tracer();
  req.wait_span = tracer.begin(host_.id(), "db/lock.wait", host_.now(), txn);
  tracer.attr(req.wait_span, "key", key);
  tracer.attr(req.wait_span, "mode", mode == LockMode::Exclusive ? "X" : "S");
  kl.waiters.push_back(std::move(req));
  state->waiting_on = key_id;
  ++waiting_count_;
  detect_deadlock(state);
}

void LockManager::pump(Id key) {
  obs::ProfScope prof(obs::CostCenter::LockMgr);
  // Phase 1: decide and record every grant while no callbacks run, so a
  // callback that re-enters the lock manager (release_all, new acquires)
  // observes consistent state and cannot invalidate what we iterate.
  std::vector<Request> granted = std::exchange(grant_buf_, {});
  {
    KeyLock& kl = lock_at(key);
    while (!kl.waiters.empty()) {
      Request& head = kl.waiters.front();
      const auto held_it = std::find_if(kl.holders.begin(), kl.holders.end(),
                                        [&](const auto& h) { return h.first == head.txn; });
      const bool upgrade = held_it != kl.holders.end();
      bool grantable;
      if (upgrade) {
        grantable = can_grant(kl, head.txn, head.mode);
      } else {
        grantable = can_grant(kl, head.txn, head.mode) &&
                    (kl.holders.empty() || head.mode == LockMode::Shared);
      }
      if (!grantable) break;
      Request req = std::move(head);
      kl.waiters.pop_front();
      req.txn->held.push_back(key);
      host_.cancel_timer(req.timeout);
      close_wait_span(req, "granted");
      const auto hit = std::find_if(kl.holders.begin(), kl.holders.end(),
                                    [&](const auto& h) { return h.first == req.txn; });
      if (hit == kl.holders.end()) {
        kl.holders.emplace_back(req.txn, req.mode);
      } else if (req.mode == LockMode::Exclusive) {
        hit->second = LockMode::Exclusive;
      }
      req.txn->waiting_on = kNone;
      --waiting_count_;
      granted.push_back(std::move(req));
    }
  }
  // Phase 2: fire the callbacks.
  {
    obs::ProfScope cb(obs::CostCenter::Technique);
    for (auto& req : granted) req.granted();
  }
  granted.clear();
  grant_buf_ = std::move(granted);
}

void LockManager::release_all(const TxnId& txn) {
  obs::ProfScope prof(obs::CostCenter::LockMgr);
  const auto entry = txns_.find(txn);
  if (entry == txns_.end()) return;
  TxnState* const state = &entry->second;
  // Cancel a pending request, if any.
  if (state->waiting_on != kNone) {
    KeyLock& kl = lock_at(state->waiting_on);
    for (auto it = kl.waiters.begin(); it != kl.waiters.end(); ++it) {
      if (it->txn == state) {
        host_.cancel_timer(it->timeout);
        close_wait_span(*it, "cancelled");
        kl.waiters.erase(it);
        break;
      }
    }
    state->waiting_on = kNone;
    --waiting_count_;
  }
  state->priority_set = false;
  // Release held locks. `held` may list a key twice (grant then upgrade);
  // the second pass finds the holder already gone and just re-pumps.
  std::vector<Id> held = std::move(state->held);
  state->held.clear();
  for (const Id key : held) {
    KeyLock& kl = lock_at(key);
    std::erase_if(kl.holders, [&](const auto& h) { return h.first == state; });
    pump(key);
  }
  // Forget the transaction, unless a grant callback above acquired for it
  // again. By key: those callbacks may have rehashed the map.
  if (state->held.empty() && state->waiting_on == kNone) txns_.erase(txn);
}

std::int64_t LockManager::holder_priority(const TxnState& txn) {
  // Unknown priority counts as oldest, so the requester defers to it.
  return txn.priority_set ? txn.priority : std::numeric_limits<std::int64_t>::min();
}

bool LockManager::holds(const TxnId& txn, const Key& key, LockMode mode) const {
  const auto entry = txns_.find(txn);
  const Id key_id = key_names_.find(key);
  if (entry == txns_.end() || key_id == kNone || key_id >= locks_.size()) return false;
  const KeyLock& kl = locks_[key_id];
  for (const auto& [holder, held_mode] : kl.holders) {
    if (holder != &entry->second) continue;
    return mode == LockMode::Shared || held_mode == LockMode::Exclusive;
  }
  return false;
}

bool LockManager::walk_cycle(const TxnState* txn, std::vector<TxnState*>& path) const {
  if (txn->waiting_on == kNone) return false;
  for (const auto& [holder, mode] : locks_[txn->waiting_on].holders) {
    if (holder == txn) continue;
    if (std::find(path.begin(), path.end(), holder) != path.end()) return true;  // cycle
    path.push_back(holder);
    if (walk_cycle(holder, path)) return true;
    path.pop_back();
  }
  return false;
}

void LockManager::detect_deadlock(TxnState* waiter) {
  // waits-for edges: each waiting txn -> every current holder of its key.
  // Follow the chain from `waiter`; if it loops back, abort the youngest
  // (largest priority number) waiter on the cycle. Paths are a few ids
  // long, so linear membership checks suffice.
  path_.clear();
  path_.push_back(waiter);
  if (!walk_cycle(waiter, path_)) return;

  // Victim: the youngest transaction on the path that is actually waiting.
  TxnState* victim = nullptr;
  std::int64_t victim_priority = std::numeric_limits<std::int64_t>::min();
  for (TxnState* const txn : path_) {
    if (txn->waiting_on == kNone) continue;
    const KeyLock& kl = locks_[txn->waiting_on];
    for (const auto& req : kl.waiters) {
      if (req.txn == txn && req.priority > victim_priority) {
        victim_priority = req.priority;
        victim = txn;
      }
    }
  }
  util::ensure(victim != nullptr, "LockManager: cycle without waiting victim");
  const std::string& victim_txn = *victim->name;
  util::log_info("lock: deadlock, aborting ", victim_txn);
  host_.sim().metrics().incr("db.lock.deadlocks");
  host_.sim().tracer().instant(host_.id(), "db/lock.deadlock", host_.now(), victim_txn,
                               obs::Attrs{{"cycle_len", std::to_string(path_.size())}});
  // Last, and path_ is not read after it: the callbacks it fires (grants,
  // then the victim's abort) may acquire and so re-enter this function,
  // which reuses path_.
  abort_waiter(victim->waiting_on, victim);
}

void LockManager::abort_waiter(Id key, TxnState* txn) {
  KeyLock& kl = locks_[key];
  for (auto it = kl.waiters.begin(); it != kl.waiters.end(); ++it) {
    if (it->txn != txn) continue;
    host_.cancel_timer(it->timeout);
    close_wait_span(*it, "aborted");
    AbortFn aborted = std::move(it->aborted);
    kl.waiters.erase(it);
    txn->waiting_on = kNone;
    --waiting_count_;
    pump(key);
    obs::ProfScope cb(obs::CostCenter::Technique);
    aborted();  // last: the callback usually calls release_all
    return;
  }
}

}  // namespace repli::db

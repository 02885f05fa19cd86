// Operations, stored procedures, and the transaction execution engine.
//
// An operation names a registered stored procedure and declares the data
// items it reads and writes (the paper's protocols coordinate on data
// items, so declared access sets are what gets locked/ordered). Execution
// runs against a TxnExec context: reads see the transaction's own buffered
// writes, record the version read (for certification), and writes stay
// buffered until commit.
//
// Nondeterminism is explicit: a procedure calls ctx.choose(n), answered by
// a ChoiceSource. Sources: replica-local randomness (genuinely
// nondeterministic across replicas — what active replication forbids),
// request-seeded (deterministic everywhere), recording and replaying
// (semi-active replication's leader/follower pair).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "db/storage.hh"
#include "util/rng.hh"
#include "wire/message.hh"

namespace repli::db {

struct Operation {
  std::string proc;               // registered stored-procedure name
  std::vector<std::string> args;
  std::vector<Key> read_set;      // declared data items read
  std::vector<Key> write_set;     // declared data items written

  template <class Ar>
  void fields(Ar& ar) {
    ar(proc);
    ar(args);
    ar(read_set);
    ar(write_set);
  }

  /// True if the operation declares no writes (a read-only query).
  bool read_only() const { return write_set.empty(); }
  /// All declared items (read ∪ write), each with the strongest access.
  std::vector<std::pair<Key, bool>> lock_plan() const;  // (key, exclusive?)
};

/// Answers choose() calls during execution.
class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;
  virtual std::int64_t choose(std::int64_t n) = 0;  // result in [0, n)
};

/// Replica-local randomness: different replicas draw different values.
class LocalRandomChoices : public ChoiceSource {
 public:
  explicit LocalRandomChoices(util::Rng& rng) : rng_(rng) {}
  std::int64_t choose(std::int64_t n) override { return rng_.uniform(0, n - 1); }

 private:
  util::Rng& rng_;
};

/// Deterministic: seeded from the request id, same everywhere.
class SeededChoices : public ChoiceSource {
 public:
  explicit SeededChoices(std::uint64_t seed) : rng_(seed) {}
  std::int64_t choose(std::int64_t n) override { return rng_.uniform(0, n - 1); }

 private:
  util::Rng rng_;
};

/// Wraps another source and records every answer (semi-active leader).
class RecordingChoices : public ChoiceSource {
 public:
  explicit RecordingChoices(ChoiceSource& inner) : inner_(inner) {}
  std::int64_t choose(std::int64_t n) override {
    const auto v = inner_.choose(n);
    log_.push_back(v);
    return v;
  }
  const std::vector<std::int64_t>& log() const { return log_; }

 private:
  ChoiceSource& inner_;
  std::vector<std::int64_t> log_;
};

/// Replays a recorded choice log (semi-active follower).
class ReplayChoices : public ChoiceSource {
 public:
  explicit ReplayChoices(std::vector<std::int64_t> log) : log_(std::move(log)) {}
  std::int64_t choose(std::int64_t n) override;
  bool exhausted() const { return next_ == log_.size(); }

 private:
  std::vector<std::int64_t> log_;
  std::size_t next_ = 0;
};

class TxnExec;

/// The interface a stored procedure sees.
class ProcCtx {
 public:
  ProcCtx(TxnExec& txn, const Operation& op, ChoiceSource& choices);

  /// Reads a declared data item ("" if absent).
  Value get(const Key& key);
  /// Writes a declared data item (buffered until commit).
  void put(const Key& key, Value value);
  std::int64_t choose(std::int64_t n) { return choices_.choose(n); }

  const std::string& arg(std::size_t i) const;
  /// Sets the operation's result returned to the client.
  void result(std::string r) { result_ = std::move(r); }
  const std::string& current_result() const { return result_; }

 private:
  TxnExec& txn_;
  const Operation& op_;
  ChoiceSource& choices_;
  std::string result_;
};

using ProcFn = std::function<void(ProcCtx&)>;

class ProcRegistry {
 public:
  /// `deterministic` marks procedures safe for active replication.
  void add(const std::string& name, ProcFn fn, bool deterministic = true);
  const ProcFn& fn(const std::string& name) const;
  bool deterministic(const std::string& name) const;
  bool contains(const std::string& name) const { return procs_.contains(name); }

  /// Registry preloaded with the built-in procedures:
  ///   get(k) / put(k,v) / append(k,v) / add(k,delta) / transfer(a,b,amt)
  ///   / spin_nondet(k) — writes a choose()-dependent value (nondeterministic).
  static ProcRegistry with_builtins();

 private:
  struct Entry {
    ProcFn fn;
    bool deterministic;
  };
  std::map<std::string, Entry> procs_;
};

/// One transaction's buffered execution against a base storage.
class TxnExec {
 public:
  TxnExec(std::string txn_id, const Storage& base) : txn_id_(std::move(txn_id)), base_(base) {}

  /// Executes one operation; returns its result string.
  std::string run(const ProcRegistry& registry, const Operation& op, ChoiceSource& choices);

  const std::string& txn_id() const { return txn_id_; }
  /// Keys read from base storage -> version read (own-writes reads excluded).
  const std::map<Key, std::uint64_t>& read_versions() const { return reads_; }
  /// Buffered writes.
  const std::map<Key, Value>& writes() const { return writes_; }

  /// Applies buffered writes to `target` under one commit sequence number.
  /// Returns the commit sequence used.
  std::uint64_t commit_into(Storage& target);

 private:
  friend class ProcCtx;
  Value read(const Key& key);
  void write(const Key& key, Value value);

  std::string txn_id_;
  const Storage& base_;
  std::map<Key, std::uint64_t> reads_;
  std::map<Key, Value> writes_;
};

/// Convenience: execute a single-operation transaction and commit it.
struct SingleOpResult {
  std::string result;
  std::map<Key, Value> writes;
  std::map<Key, std::uint64_t> read_versions;
  std::uint64_t commit_seq = 0;  // 0 when not committed (read-only fast path)
};
SingleOpResult execute_and_commit(const ProcRegistry& registry, const Operation& op,
                                  Storage& storage, ChoiceSource& choices,
                                  const std::string& txn_id);

}  // namespace repli::db

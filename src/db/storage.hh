// In-memory versioned key-value store: the per-replica "database".
//
// Each record carries the monotonically increasing commit sequence number of
// the transaction that wrote it; read versions feed the certification-based
// protocol and the serializability checker, and value digests feed the
// replica-convergence checker.
//
// Keys are interned to dense ids internally (one hash lookup per access,
// flat vector storage, no per-record map nodes). Replicas may intern the
// same keys in different orders — every cross-replica artifact (digest,
// records() export) therefore canonicalizes to key order at the boundary.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/intern.hh"

namespace repli::db {

using Key = std::string;
using Value = std::string;

struct Record {
  Value value;
  std::uint64_t version = 0;     // commit sequence of the writing transaction
  std::string writer_txn;        // id of the writing transaction
};

class Storage {
 public:
  std::optional<Record> get(const Key& key) const;

  /// Installs a committed value. `version` must not regress for the key.
  void put(const Key& key, Value value, std::uint64_t version, std::string writer_txn);

  /// Installs a value even if `version` regresses (reconciliation undo).
  void force_put(const Key& key, Value value, std::uint64_t version, std::string writer_txn);

  std::size_t size() const { return live_count_; }
  /// Materialized key-ordered snapshot (export/inspection boundary; the
  /// records live in interned-id order internally).
  std::map<Key, Record> records() const;

  /// Order-independent digest over (key, value) pairs; versions excluded so
  /// replicas that converged through different paths still compare equal.
  std::uint64_t value_digest() const;

  /// Next commit sequence number for this site (monotone, starts at 1).
  std::uint64_t next_commit_seq() { return ++commit_seq_; }
  std::uint64_t last_commit_seq() const { return commit_seq_; }
  /// Fast-forward the local sequence (apply path for propagated updates).
  void observe_commit_seq(std::uint64_t seq);

 private:
  struct Slot {
    Record rec;
    bool present = false;
  };
  /// The key's slot; a key seen for the first time also takes its place
  /// in sorted_.
  Slot& slot_for(const Key& key);

  util::Interner key_names_;
  std::vector<Slot> slots_;  // indexed by interned key id
  /// Interned key ids sorted by key string — the canonical iteration order
  /// for digests and exports. Keys never disappear, so slot_for keeps it
  /// sorted by inserting each new key where it belongs.
  std::vector<util::Interner::Id> sorted_;
  std::size_t live_count_ = 0;
  std::uint64_t commit_seq_ = 0;
};

}  // namespace repli::db

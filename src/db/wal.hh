// Write-ahead log (in-memory): the redo records a primary ships to its
// secondaries in eager-primary-copy replication, and an audit trail for
// tests. Crash-recovery-from-disk is out of scope (crash-stop model).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/storage.hh"

namespace repli::db {

enum class WalType { Begin, Write, Commit, Abort };

struct WalRecord {
  std::uint64_t lsn = 0;
  WalType type = WalType::Begin;
  std::string txn;
  Key key;      // Write records only
  Value value;  // Write records only

  template <class Ar>
  void fields(Ar& ar) {
    ar(lsn);
    ar(type);
    ar(txn);
    ar(key);
    ar(value);
  }
};

class Wal {
 public:
  using AppendFn = std::function<void(const WalRecord&)>;

  /// Called after every append (metrics/tracing hook). One observer.
  void set_observer(AppendFn fn) { observer_ = std::move(fn); }

  std::uint64_t begin(const std::string& txn);
  std::uint64_t write(const std::string& txn, const Key& key, const Value& value);
  std::uint64_t commit(const std::string& txn);
  std::uint64_t abort(const std::string& txn);

  const std::vector<WalRecord>& records() const { return records_; }
  /// Records with lsn > `after` (what still needs shipping).
  std::vector<WalRecord> tail(std::uint64_t after) const;
  std::uint64_t last_lsn() const { return next_lsn_ - 1; }

  /// Approximate encoded size of one record.
  static std::uint64_t record_bytes(const WalRecord& rec);

  /// Redo: applies the committed transactions found in `records` to
  /// `storage`, in log order. Returns the number of transactions applied.
  static std::size_t redo(const std::vector<WalRecord>& records, Storage& storage);

 private:
  std::uint64_t append(WalType type, const std::string& txn, Key key = {}, Value value = {});
  std::vector<WalRecord> records_;
  std::uint64_t next_lsn_ = 1;
  AppendFn observer_;
};

}  // namespace repli::db

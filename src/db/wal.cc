#include "db/wal.hh"

#include <map>

namespace repli::db {

std::uint64_t Wal::record_bytes(const WalRecord& rec) {
  // lsn + type tag + string payloads; close enough to the wire encoding for
  // volume accounting.
  return 9 + rec.txn.size() + rec.key.size() + rec.value.size();
}

std::uint64_t Wal::append(WalType type, const std::string& txn, Key key, Value value) {
  WalRecord rec;
  rec.lsn = next_lsn_++;
  rec.type = type;
  rec.txn = txn;
  rec.key = std::move(key);
  rec.value = std::move(value);
  records_.push_back(std::move(rec));
  if (observer_) observer_(records_.back());
  return records_.back().lsn;
}

std::uint64_t Wal::begin(const std::string& txn) { return append(WalType::Begin, txn); }
std::uint64_t Wal::write(const std::string& txn, const Key& key, const Value& value) {
  return append(WalType::Write, txn, key, value);
}
std::uint64_t Wal::commit(const std::string& txn) { return append(WalType::Commit, txn); }
std::uint64_t Wal::abort(const std::string& txn) { return append(WalType::Abort, txn); }

std::vector<WalRecord> Wal::tail(std::uint64_t after) const {
  std::vector<WalRecord> out;
  for (const auto& rec : records_) {
    if (rec.lsn > after) out.push_back(rec);
  }
  return out;
}

std::size_t Wal::redo(const std::vector<WalRecord>& records, Storage& storage) {
  // Collect writes per transaction; apply them at the Commit record.
  std::map<std::string, std::vector<std::pair<Key, Value>>> staged;
  std::size_t applied = 0;
  for (const auto& rec : records) {
    switch (rec.type) {
      case WalType::Begin:
        staged[rec.txn];
        break;
      case WalType::Write:
        staged[rec.txn].emplace_back(rec.key, rec.value);
        break;
      case WalType::Abort:
        staged.erase(rec.txn);
        break;
      case WalType::Commit: {
        const auto it = staged.find(rec.txn);
        if (it == staged.end()) break;
        const auto seq = storage.next_commit_seq();
        for (const auto& [key, value] : it->second) storage.put(key, value, seq, rec.txn);
        staged.erase(it);
        ++applied;
        break;
      }
    }
  }
  return applied;
}

}  // namespace repli::db

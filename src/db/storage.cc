#include "db/storage.hh"

#include <algorithm>

#include "util/assert.hh"

namespace repli::db {

namespace {
std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

Storage::Slot& Storage::slot_for(const Key& key) {
  const util::Interner::Id id = key_names_.intern(key);
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& s = slots_[id];
  if (!s.present) {
    s.present = true;
    ++live_count_;
    const auto at = std::lower_bound(
        sorted_.begin(), sorted_.end(), key,
        [this](util::Interner::Id a, const Key& k) { return key_names_.str(a) < k; });
    sorted_.insert(at, id);
  }
  return s;
}

std::optional<Record> Storage::get(const Key& key) const {
  const util::Interner::Id id = key_names_.find(key);
  if (id == util::Interner::kNoId || id >= slots_.size() || !slots_[id].present)
    return std::nullopt;
  return slots_[id].rec;
}

void Storage::put(const Key& key, Value value, std::uint64_t version, std::string writer_txn) {
  Record& rec = slot_for(key).rec;
  if (version < rec.version) util::fail("Storage::put: version regression on key " + key);
  rec.value = std::move(value);
  rec.version = version;
  rec.writer_txn = std::move(writer_txn);
}

void Storage::force_put(const Key& key, Value value, std::uint64_t version,
                        std::string writer_txn) {
  Record& rec = slot_for(key).rec;
  rec.value = std::move(value);
  rec.version = version;
  rec.writer_txn = std::move(writer_txn);
}

std::map<Key, Record> Storage::records() const {
  std::map<Key, Record> out;
  for (const auto id : sorted_) out.emplace(key_names_.str(id), slots_[id].rec);
  return out;
}

std::uint64_t Storage::value_digest() const {
  // Canonical key order, independent of interning (= insertion) order, so
  // replicas that converged through different paths digest equal.
  std::uint64_t h = 1469598103934665603ull;
  for (const auto id : sorted_) {
    h = fnv1a64(key_names_.str(id), h);
    h = fnv1a64("=", h);
    h = fnv1a64(slots_[id].rec.value, h);
    h = fnv1a64(";", h);
  }
  return h;
}

void Storage::observe_commit_seq(std::uint64_t seq) {
  commit_seq_ = std::max(commit_seq_, seq);
}

}  // namespace repli::db

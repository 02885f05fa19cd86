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
    sorted_valid_ = false;
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
  util::ensure(version >= rec.version, "Storage::put: version regression on key " + key);
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

const std::vector<util::Interner::Id>& Storage::sorted_ids() const {
  if (sorted_valid_) return sorted_;
  sorted_.clear();
  sorted_.reserve(live_count_);
  for (util::Interner::Id id = 0; id < slots_.size(); ++id) {
    if (slots_[id].present) sorted_.push_back(id);
  }
  std::sort(sorted_.begin(), sorted_.end(), [this](util::Interner::Id a, util::Interner::Id b) {
    return key_names_.str(a) < key_names_.str(b);
  });
  sorted_valid_ = true;
  return sorted_;
}

std::map<Key, Record> Storage::records() const {
  std::map<Key, Record> out;
  for (const auto id : sorted_ids()) out.emplace(key_names_.str(id), slots_[id].rec);
  return out;
}

std::uint64_t Storage::value_digest() const {
  // Canonical key order, independent of interning (= insertion) order, so
  // replicas that converged through different paths digest equal.
  std::uint64_t h = 1469598103934665603ull;
  for (const auto id : sorted_ids()) {
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

// Run histories collected for the consistency checkers: client-observed
// operation intervals (linearizability) and per-replica commit streams
// (1-copy serializability, convergence, staleness).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "db/exec.hh"
#include "sim/time.hh"

namespace repli::core {

struct OpRecord {
  std::int32_t client = 0;
  std::string request_id;
  std::vector<db::Operation> ops;
  sim::Time invoke = 0;
  sim::Time response = 0;  // 0 while outstanding
  bool ok = false;
  std::string result;
};

struct CommitRecord {
  sim::NodeId replica = sim::kNoNode;
  std::string txn;
  std::map<db::Key, db::Value> writes;
  std::map<db::Key, std::uint64_t> read_versions;  // base versions read
  std::uint64_t commit_seq = 0;                    // replica-local sequence
  sim::Time at = 0;
};

class History {
 public:
  /// Returns the index of the new record so the response can be filled in.
  std::size_t begin_op(OpRecord rec) {
    ops_.push_back(std::move(rec));
    return ops_.size() - 1;
  }
  OpRecord& op(std::size_t index) { return ops_.at(index); }

  void commit(CommitRecord rec) { commits_.push_back(std::move(rec)); }

  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<CommitRecord>& commits() const { return commits_; }

  std::size_t completed_ok() const {
    std::size_t n = 0;
    for (const auto& op : ops_) n += (op.response != 0 && op.ok) ? 1 : 0;
    return n;
  }

 private:
  std::vector<OpRecord> ops_;
  std::vector<CommitRecord> commits_;
};

}  // namespace repli::core

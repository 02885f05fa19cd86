// 1-copy-serializability and convergence checks over a run's commit
// history.
//
// What the eager database techniques guarantee — and what this checker
// verifies from the recorded per-replica commit streams:
//   1. Write-order agreement: for every data item, all replicas installed
//      the same sequence of writer transactions (one logical copy).
//   2. Acyclic serialization graph: union of write-write edges (per-item
//      install order), write-read edges (a transaction read the version a
//      writer produced), and read-write edges (a transaction read a
//      version that a later writer overwrote). A cycle is a
//      serializability violation witness.
//
// Cost is linear in the history (plus a log factor for the per-read binary
// search and the per-transaction name sort): each read adds at most one wr
// and one rw edge. The rw edge goes only to the *next* writer of the key at
// the reader's replica — the first install whose commit_seq is above the
// version read and which is not the reader itself — not to every later one.
// That keeps the verdict: the ww edges chain consecutive distinct writers in
// install order, so the next writer reaches every later writer of the key.
// Every rw edge the full construction would add is therefore a path in this
// graph, and every edge of this graph is one the full construction adds. The
// two graphs have the same transitive closure, hence the same cycles-or-not.
// A cycle witness names one edge of a cycle, which may be a different edge
// of the same cycle than the full graph's DFS would report.
//
// Precondition: at each replica, the records that write carry commit_seq
// strictly increasing in history order (Storage::next_commit_seq gives
// that), so each per-(replica, key) writer sequence is sorted both ways. A
// history that breaks it is a recording bug, reported by throwing
// util::InvariantViolation rather than by a verdict.
#pragma once

#include <string>
#include <vector>

#include "core/history.hh"

namespace repli::check {

struct SrReport {
  bool serializable = true;
  bool write_orders_agree = true;
  std::string violation;
  std::size_t transactions = 0;
  std::size_t edges = 0;  // distinct edges of the serialization graph
};

SrReport check_one_copy_serializability(const repli::core::History& history);

/// Per-key writer sequences of one replica, in commit order (exposed for
/// tests and for the write-order-agreement part of the report).
std::vector<std::string> writer_sequence(const repli::core::History& history,
                                         sim::NodeId replica, const db::Key& key);

}  // namespace repli::check

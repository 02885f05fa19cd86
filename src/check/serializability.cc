#include "check/serializability.hh"

#include "obs/profile.hh"
#include "util/assert.hh"
#include "util/intern.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace repli::check {

namespace {

using repli::core::History;

/// Interned ids remapped to lexicographic ranks: rank order == name order,
/// so numeric iteration reproduces the string-keyed walk this replaced
/// (same start order, same write-order witness on failure).
struct Ranked {
  std::vector<std::uint32_t> id_of_rank;  // rank -> interner id
  std::vector<std::uint32_t> rank_of_id;  // interner id -> rank

  explicit Ranked(const util::Interner& names) {
    id_of_rank.resize(names.size());
    for (std::uint32_t i = 0; i < id_of_rank.size(); ++i) id_of_rank[i] = i;
    std::sort(id_of_rank.begin(), id_of_rank.end(),
              [&](std::uint32_t a, std::uint32_t b) { return names.str(a) < names.str(b); });
    rank_of_id.resize(names.size());
    for (std::uint32_t r = 0; r < id_of_rank.size(); ++r) rank_of_id[id_of_rank[r]] = r;
  }
};

/// Cycle detection over a rank-indexed adjacency list (iterative three-color
/// DFS). Each neighbor list is sorted and deduplicated, so neighbors are
/// visited in ascending rank = ascending name.
bool has_cycle(const std::vector<std::vector<std::uint32_t>>& graph,
               std::pair<std::uint32_t, std::uint32_t>* witness) {
  enum class Color : std::uint8_t { White, Gray, Black };
  std::vector<Color> color(graph.size(), Color::White);
  std::vector<std::pair<std::uint32_t, bool>> stack;  // (node, processed)

  for (std::uint32_t start = 0; start < graph.size(); ++start) {
    if (color[start] != Color::White) continue;
    stack.assign(1, {start, false});
    while (!stack.empty()) {
      const auto [node, processed] = stack.back();
      stack.pop_back();
      if (processed) {
        color[node] = Color::Black;
        continue;
      }
      if (color[node] != Color::White) continue;
      color[node] = Color::Gray;
      stack.push_back({node, true});
      for (const auto next : graph[node]) {
        if (color[next] == Color::Gray) {
          if (witness != nullptr) *witness = {node, next};
          return true;
        }
        if (color[next] == Color::White) stack.push_back({next, false});
      }
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> writer_sequence(const History& history, sim::NodeId replica,
                                         const db::Key& key) {
  std::vector<std::string> out;
  for (const auto& rec : history.commits()) {
    if (rec.replica != replica) continue;
    if (rec.writes.contains(key)) out.push_back(rec.txn);
  }
  return out;
}

SrReport check_one_copy_serializability(const History& history) {
  obs::ProfScope prof(obs::CostCenter::Checker);
  SrReport report;
  const auto& commits = history.commits();

  // Intern transactions and written keys to dense ids; strings reappear only
  // in the report (see docs/ARCHITECTURE.md "Interned keys").
  util::Interner txn_names;
  util::Interner key_names;
  std::vector<sim::NodeId> replica_list;
  std::vector<std::uint32_t> txn_of;  // per record: interned txn id, then its rank
  txn_of.reserve(commits.size());
  for (const auto& rec : commits) {
    if (std::find(replica_list.begin(), replica_list.end(), rec.replica) == replica_list.end()) {
      replica_list.push_back(rec.replica);
    }
    txn_of.push_back(txn_names.intern(rec.txn));
    for (const auto& [key, value] : rec.writes) key_names.intern(key);
  }
  report.transactions = txn_names.size();
  if (replica_list.empty()) return report;
  std::sort(replica_list.begin(), replica_list.end());

  const Ranked txn_rank(txn_names);
  const Ranked key_rank(key_names);
  for (auto& t : txn_of) t = txn_rank.rank_of_id[t];
  const auto txn_str = [&](std::uint32_t rank) -> const std::string& {
    return txn_names.str(txn_rank.id_of_rank[rank]);
  };
  const auto replica_idx = [&](sim::NodeId replica) {
    return static_cast<std::size_t>(
        std::lower_bound(replica_list.begin(), replica_list.end(), replica) -
        replica_list.begin());
  };

  // One pass builds every per-(replica, key) writer sequence — txn rank plus
  // the commit_seq the wr/rw lookups search. Each sequence is sorted by
  // commit_seq because every replica's installs are recorded in ascending
  // commit_seq order; a history that breaks that is a recording bug.
  using Write = std::pair<std::uint64_t, std::uint32_t>;  // (commit_seq, txn rank)
  std::vector<std::vector<std::vector<Write>>> writers(
      replica_list.size(), std::vector<std::vector<Write>>(key_names.size()));
  std::vector<std::uint64_t> last_seq(replica_list.size(), 0);
  for (std::size_t i = 0; i < commits.size(); ++i) {
    const auto& rec = commits[i];
    if (rec.writes.empty()) continue;
    const std::size_t ridx = replica_idx(rec.replica);
    util::ensure(rec.commit_seq > last_seq[ridx],
                 "check_one_copy_serializability: commit_seq must increase strictly with "
                 "history order at each replica");
    last_seq[ridx] = rec.commit_seq;
    for (const auto& [key, value] : rec.writes) {
      const std::uint32_t kr = key_rank.rank_of_id[key_names.find(key)];
      writers[ridx][kr].push_back({rec.commit_seq, txn_of[i]});
    }
  }

  // 1. Write-order agreement across replicas, per key. Replicas that never
  // saw a key's tail (e.g. crashed mid-run) are compared on the common
  // prefix only if they are a strict prefix; a genuine reorder fails.
  std::vector<const std::vector<Write>*> longest(key_names.size());
  for (std::uint32_t kr = 0; kr < key_names.size(); ++kr) {
    longest[kr] = &writers[0][kr];
    for (std::size_t ridx = 1; ridx < replica_list.size(); ++ridx) {
      if (writers[ridx][kr].size() > longest[kr]->size()) longest[kr] = &writers[ridx][kr];
    }
    for (std::size_t ridx = 0; ridx < replica_list.size(); ++ridx) {
      const auto& seq = writers[ridx][kr];
      const bool prefix = std::equal(
          seq.begin(), seq.end(), longest[kr]->begin(),
          [](const Write& a, const Write& b) { return a.second == b.second; });
      if (!prefix) {
        report.write_orders_agree = false;
        report.serializable = false;
        report.violation = "replicas disagree on write order of key '" +
                           key_names.str(key_rank.id_of_rank[kr]) + "'";
        return report;
      }
    }
  }

  // 2. Serialization graph, rank-indexed. Edges derived per replica, then
  // unioned (the one-copy view: all replicas must embed into one serial
  // order).
  std::vector<std::vector<std::uint32_t>> graph(txn_names.size());

  // ww edges: per key, install order. Every replica's sequence is a prefix
  // of the longest one (checked above), so the longest one's edges are all
  // of them.
  for (const auto* seq : longest) {
    for (std::size_t i = 1; i < seq->size(); ++i) {
      const auto from = (*seq)[i - 1].second;
      const auto to = (*seq)[i].second;
      if (from != to) graph[from].push_back(to);
    }
  }

  // wr and rw edges from recorded read versions, found by binary search in
  // the reader's replica's writer sequence for the key. A key that was read
  // but never written has no interned id — and no writers, so no edges.
  for (std::size_t i = 0; i < commits.size(); ++i) {
    const auto& rec = commits[i];
    const std::uint32_t self = txn_of[i];
    const std::size_t ridx = replica_idx(rec.replica);
    for (const auto& [key, version] : rec.read_versions) {
      const auto kid = key_names.find(key);
      if (kid == util::Interner::kNoId) continue;
      const auto& seq = writers[ridx][key_rank.rank_of_id[kid]];
      auto it = std::lower_bound(seq.begin(), seq.end(), version,
                                 [](const Write& w, std::uint64_t v) { return w.first < v; });
      // wr: the writer of the version read happens-before the reader. Every
      // recorded commit_seq is positive, so version 0 (the initial state)
      // matches no writer.
      if (it != seq.end() && it->first == version) {
        if (it->second != self) graph[it->second].push_back(self);
        ++it;
      }
      // rw: the reader precedes the next writer that overwrote what it read;
      // the ww chain from there reaches every later one.
      while (it != seq.end() && it->second == self) ++it;
      if (it != seq.end()) graph[self].push_back(it->second);
    }
  }

  for (auto& next : graph) {
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    report.edges += next.size();
  }

  std::pair<std::uint32_t, std::uint32_t> witness;
  if (has_cycle(graph, &witness)) {
    report.serializable = false;
    report.violation =
        "cycle through " + txn_str(witness.first) + " -> " + txn_str(witness.second);
  }
  return report;
}

}  // namespace repli::check

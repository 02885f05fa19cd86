#include "check/serializability.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "util/assert.hh"
#include "util/rng.hh"

namespace repli::check {
namespace {

using repli::core::CommitRecord;
using repli::core::History;

CommitRecord commit(sim::NodeId replica, const std::string& txn, std::uint64_t seq,
                    std::map<db::Key, db::Value> writes,
                    std::map<db::Key, std::uint64_t> reads = {}) {
  CommitRecord rec;
  rec.replica = replica;
  rec.txn = txn;
  rec.commit_seq = seq;
  rec.writes = std::move(writes);
  rec.read_versions = std::move(reads);
  return rec;
}

TEST(Serializability, EmptyHistoryIsSerializable) {
  History history;
  const auto report = check_one_copy_serializability(history);
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.transactions, 0u);
}

TEST(Serializability, ConsistentReplicasPass) {
  History history;
  for (const sim::NodeId replica : {0, 1, 2}) {
    history.commit(commit(replica, "t1", 1, {{"k", "a"}}));
    history.commit(commit(replica, "t2", 2, {{"k", "b"}}));
  }
  const auto report = check_one_copy_serializability(history);
  EXPECT_TRUE(report.serializable);
  EXPECT_TRUE(report.write_orders_agree);
  EXPECT_EQ(report.transactions, 2u);
  EXPECT_GT(report.edges, 0u);
}

TEST(Serializability, CrashedReplicaPrefixPasses) {
  History history;
  history.commit(commit(0, "t1", 1, {{"k", "a"}}));
  history.commit(commit(0, "t2", 2, {{"k", "b"}}));
  history.commit(commit(1, "t1", 1, {{"k", "a"}}));  // crashed before t2
  const auto report = check_one_copy_serializability(history);
  EXPECT_TRUE(report.serializable) << report.violation;
}

TEST(Serializability, WriteOrderDisagreementFails) {
  History history;
  history.commit(commit(0, "t1", 1, {{"k", "a"}}));
  history.commit(commit(0, "t2", 2, {{"k", "b"}}));
  history.commit(commit(1, "t2", 1, {{"k", "b"}}));
  history.commit(commit(1, "t1", 2, {{"k", "a"}}));
  const auto report = check_one_copy_serializability(history);
  EXPECT_FALSE(report.serializable);
  EXPECT_FALSE(report.write_orders_agree);
  EXPECT_NE(report.violation.find("k"), std::string::npos);
}

TEST(Serializability, ReadWriteCycleFails) {
  // Classic write skew shape: t1 reads x@1 writes y; t2 reads y@1 writes x.
  // Both read the pre-state of what the other overwrote: rw edges both ways.
  History history;
  history.commit(commit(0, "t0", 1, {{"x", "0"}, {"y", "0"}}));
  history.commit(commit(0, "t1", 2, {{"y", "1"}}, {{"x", 1}}));
  history.commit(commit(0, "t2", 3, {{"x", "1"}}, {{"y", 1}}));
  const auto report = check_one_copy_serializability(history);
  EXPECT_FALSE(report.serializable) << "write skew should produce a cycle";
}

TEST(Serializability, ReadFromOrderPasses) {
  History history;
  history.commit(commit(0, "t1", 1, {{"x", "1"}}));
  history.commit(commit(0, "t2", 2, {{"y", "1"}}, {{"x", 1}}));  // t2 read t1's write
  const auto report = check_one_copy_serializability(history);
  EXPECT_TRUE(report.serializable) << report.violation;
}

TEST(Serializability, WriterSequenceExtraction) {
  History history;
  history.commit(commit(2, "t1", 1, {{"k", "a"}, {"other", "x"}}));
  history.commit(commit(2, "t2", 2, {{"k", "b"}}));
  history.commit(commit(1, "t9", 1, {{"k", "z"}}));
  EXPECT_EQ(writer_sequence(history, 2, "k"), (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(writer_sequence(history, 2, "other"), (std::vector<std::string>{"t1"}));
  EXPECT_EQ(writer_sequence(history, 1, "k"), (std::vector<std::string>{"t9"}));
  EXPECT_TRUE(writer_sequence(history, 0, "k").empty());
}

TEST(Serializability, NonMonotoneCommitSeqIsARecordingBug) {
  History history;
  history.commit(commit(0, "t1", 2, {{"k", "a"}}));
  history.commit(commit(0, "t2", 1, {{"k", "b"}}));
  EXPECT_THROW(check_one_copy_serializability(history), util::InvariantViolation);

  History repeated;
  repeated.commit(commit(1, "t1", 1, {{"x", "a"}}));
  repeated.commit(commit(1, "t2", 1, {{"y", "b"}}));
  EXPECT_THROW(check_one_copy_serializability(repeated), util::InvariantViolation);

  // Each replica counts on its own, and records that write nothing carry no
  // install to order.
  History ok;
  ok.commit(commit(0, "t1", 5, {{"k", "a"}}));
  ok.commit(commit(1, "t1", 1, {{"k", "a"}}));
  ok.commit(commit(0, "r", 0, {}, {{"k", 5}}));
  EXPECT_NO_THROW(check_one_copy_serializability(ok));
}

// -- Differential check against the quadratic construction ------------------

/// The construction the checker used before it went linear, kept as an
/// oracle: string-keyed, every read gets an rw edge to *every* later writer
/// of its key at its replica, std::set adjacency.
struct ReferenceVerdict {
  bool serializable = true;
  bool write_orders_agree = true;
  std::size_t edges = 0;  // distinct
};

ReferenceVerdict reference_check(const History& history) {
  ReferenceVerdict out;
  using Writers = std::vector<std::pair<std::uint64_t, std::string>>;  // (seq, txn)
  std::map<sim::NodeId, std::map<db::Key, Writers>> writers;
  std::set<db::Key> keys;
  std::map<std::string, std::set<std::string>> graph;
  for (const auto& rec : history.commits()) {
    graph[rec.txn];
    writers[rec.replica];
    for (const auto& [key, value] : rec.writes) {
      writers[rec.replica][key].push_back({rec.commit_seq, rec.txn});
      keys.insert(key);
    }
  }
  for (const auto& key : keys) {
    const Writers empty;
    const Writers* longest = &empty;
    for (auto& [replica, per_key] : writers) {
      if (per_key[key].size() > longest->size()) longest = &per_key[key];
    }
    for (auto& [replica, per_key] : writers) {
      const auto& seq = per_key[key];
      if (!std::equal(seq.begin(), seq.end(), longest->begin(),
                      [](const auto& a, const auto& b) { return a.second == b.second; })) {
        out.write_orders_agree = false;
        out.serializable = false;
        return out;
      }
    }
  }
  for (const auto& [replica, per_key] : writers) {
    for (const auto& [key, seq] : per_key) {
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i - 1].second != seq[i].second) graph[seq[i - 1].second].insert(seq[i].second);
      }
    }
  }
  std::map<std::pair<sim::NodeId, std::uint64_t>, const CommitRecord*> by_seq;
  for (const auto& rec : history.commits()) by_seq[{rec.replica, rec.commit_seq}] = &rec;
  for (const auto& rec : history.commits()) {
    for (const auto& [key, version] : rec.read_versions) {
      if (version != 0) {
        const auto it = by_seq.find({rec.replica, version});
        if (it != by_seq.end() && it->second->writes.contains(key) &&
            it->second->txn != rec.txn) {
          graph[it->second->txn].insert(rec.txn);
        }
      }
      const auto kit = writers[rec.replica].find(key);
      if (kit == writers[rec.replica].end()) continue;
      for (const auto& [seq, writer] : kit->second) {
        if (seq > version && writer != rec.txn) graph[rec.txn].insert(writer);
      }
    }
  }
  for (const auto& [txn, next] : graph) out.edges += next.size();

  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  const std::function<bool(const std::string&)> cyclic = [&](const std::string& node) {
    color[node] = 1;
    for (const auto& next : graph[node]) {
      if (color[next] == 1) return true;
      if (color[next] == 0 && cyclic(next)) return true;
    }
    color[node] = 2;
    return false;
  };
  for (const auto& [txn, next] : graph) {
    if (color[txn] == 0 && cyclic(txn)) {
      out.serializable = false;
      break;
    }
  }
  return out;
}

/// A random replicated history: transactions planned once, then executed in
/// that order at each of 1-3 replicas, which record what they install and
/// the versions they read. Anomalies come from the knobs a faulty protocol
/// would turn: stale snapshots (write skew, lost update), a replica that
/// swaps two neighbours (write-order disagreement), a crashed replica that
/// stops after a prefix, and a replica that records no reads (a backup
/// applying shipped writes). Each replica's records keep their order, and
/// the replicas' streams are interleaved at random.
History random_history(util::Rng& rng) {
  struct Planned {
    std::string name;
    std::vector<db::Key> reads;
    std::vector<db::Key> writes;
    int lag = 0;  // commits behind the replica's latest state its reads see
  };
  const int replicas = static_cast<int>(rng.uniform(1, 3));
  const int keys = static_cast<int>(rng.uniform(2, 6));
  const int txns = static_cast<int>(rng.uniform(1, 14));
  const auto any_key = [&] { return "k" + std::to_string(rng.uniform(0, keys - 1)); };

  std::vector<Planned> plan;
  for (int t = 0; t < txns; ++t) {
    Planned p;
    p.name = "t" + std::to_string(t);
    const auto a = any_key();
    const auto b = any_key();
    switch (rng.uniform(0, 4)) {
      case 0:  // read-modify-write of one key
        p.reads = p.writes = {a};
        break;
      case 1:  // read-modify-write of two keys
        p.reads = p.writes = {a, b};
        break;
      case 2:  // blind write
        p.writes = {a};
        break;
      case 3:  // read one key, write another: the write-skew shape
        p.reads = {a};
        p.writes = {b};
        break;
      default:  // read-only: recorded without installs, as a fast path would
        p.reads = {a, b};
        break;
    }
    if (rng.bernoulli(0.2)) p.lag = static_cast<int>(rng.uniform(1, 3));
    plan.push_back(std::move(p));
  }

  std::vector<std::vector<CommitRecord>> streams;
  for (int r = 0; r < replicas; ++r) {
    std::vector<int> order(plan.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    if (order.size() > 1 && rng.bernoulli(0.1)) {
      const auto i = static_cast<std::size_t>(rng.uniform(0, static_cast<int>(order.size()) - 2));
      std::swap(order[i], order[i + 1]);
    }
    if (rng.bernoulli(0.2)) order.resize(static_cast<std::size_t>(rng.uniform(0, txns)));
    const bool records_reads = rng.bernoulli(0.8);

    std::vector<std::map<db::Key, std::uint64_t>> states{{}};  // state after each install
    std::uint64_t seq = 0;
    std::vector<CommitRecord> stream;
    for (const int t : order) {
      const auto& p = plan[static_cast<std::size_t>(t)];
      const auto at = states.size() - 1 - std::min<std::size_t>(p.lag, states.size() - 1);
      CommitRecord rec;
      rec.replica = r;
      rec.txn = p.name;
      if (records_reads) {
        for (const auto& key : p.reads) {
          const auto it = states[at].find(key);
          rec.read_versions[key] = it == states[at].end() ? 0 : it->second;
          // Noise: a version that may name another key's writer, or none.
          if (rng.bernoulli(0.03)) rec.read_versions[key] = rng.uniform(0, seq + 2);
        }
      }
      if (!p.writes.empty()) {
        rec.commit_seq = ++seq;
        auto next = states.back();
        for (const auto& key : p.writes) {
          rec.writes[key] = p.name;
          next[key] = seq;
        }
        states.push_back(std::move(next));
      }
      stream.push_back(std::move(rec));
    }
    streams.push_back(std::move(stream));
  }

  History history;
  std::vector<std::size_t> pos(streams.size(), 0);
  for (;;) {
    std::vector<std::size_t> live;
    for (std::size_t r = 0; r < streams.size(); ++r) {
      if (pos[r] < streams[r].size()) live.push_back(r);
    }
    if (live.empty()) break;
    const auto pick = rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1);
    const auto r = live[static_cast<std::size_t>(pick)];
    history.commit(streams[r][pos[r]++]);
  }
  return history;
}

TEST(Serializability, AgreesWithAllLaterWritersConstruction) {
  util::Rng rng(2024);
  int serializable = 0;
  int disagreeing = 0;
  constexpr int kHistories = 3000;
  for (int i = 0; i < kHistories; ++i) {
    const History history = random_history(rng);
    const auto expected = reference_check(history);
    const auto got = check_one_copy_serializability(history);
    ASSERT_EQ(got.serializable, expected.serializable) << "history " << i << ": " << got.violation;
    ASSERT_EQ(got.write_orders_agree, expected.write_orders_agree) << "history " << i;
    ASSERT_LE(got.edges, expected.edges) << "history " << i;
    serializable += got.serializable ? 1 : 0;
    disagreeing += got.write_orders_agree ? 0 : 1;
  }
  // Both verdicts, and both kinds of violation, must be well represented,
  // or the agreement above shows nothing.
  EXPECT_GT(serializable, kHistories / 5);
  EXPECT_GT(kHistories - serializable - disagreeing, kHistories / 10);
  EXPECT_GT(disagreeing, kHistories / 100);
}

TEST(Serializability, AgreesOnPlantedViolations) {
  History write_skew;
  write_skew.commit(commit(0, "t0", 1, {{"x", "0"}, {"y", "0"}}));
  write_skew.commit(commit(0, "t1", 2, {{"y", "1"}}, {{"x", 1}}));
  write_skew.commit(commit(0, "t2", 3, {{"x", "1"}}, {{"y", 1}}));
  History lost_update;  // t1 and t2 both read k@1 and overwrite it
  for (const sim::NodeId replica : {0, 1}) {
    lost_update.commit(commit(replica, "t0", 1, {{"k", "0"}}));
    lost_update.commit(commit(replica, "t1", 2, {{"k", "1"}}, {{"k", 1}}));
    lost_update.commit(commit(replica, "t2", 3, {{"k", "2"}}, {{"k", 1}}));
  }
  History reordered;
  reordered.commit(commit(0, "t1", 1, {{"k", "a"}}));
  reordered.commit(commit(1, "t2", 1, {{"k", "b"}}));
  reordered.commit(commit(0, "t2", 2, {{"k", "b"}}));
  reordered.commit(commit(1, "t1", 2, {{"k", "a"}}));
  for (const History* history : {&write_skew, &lost_update, &reordered}) {
    const auto expected = reference_check(*history);
    const auto got = check_one_copy_serializability(*history);
    EXPECT_FALSE(expected.serializable);
    EXPECT_EQ(got.serializable, expected.serializable);
    EXPECT_EQ(got.write_orders_agree, expected.write_orders_agree);
  }
  EXPECT_FALSE(check_one_copy_serializability(reordered).write_orders_agree);
}

/// N read-modify-write transactions on one key, each reading its
/// predecessor's version, installed in the same order at 3 replicas.
History one_hot_key_history(int n) {
  History history;
  for (const sim::NodeId replica : {0, 1, 2}) {
    for (int i = 1; i <= n; ++i) {
      history.commit(commit(replica, "t" + std::to_string(i), static_cast<std::uint64_t>(i),
                            {{"k", "v"}}, {{"k", static_cast<std::uint64_t>(i - 1)}}));
    }
  }
  return history;
}

TEST(Serializability, EdgeCountGrowsLinearlyWithHistory) {
  constexpr int kN = 200;
  const History once = one_hot_key_history(kN);
  const History twice = one_hot_key_history(2 * kN);
  const auto small = check_one_copy_serializability(once);
  const auto large = check_one_copy_serializability(twice);
  ASSERT_TRUE(small.serializable && large.serializable);
  ASSERT_GT(small.edges, 0u);
  EXPECT_LE(static_cast<double>(large.edges), 2.1 * static_cast<double>(small.edges));
  // The all-later-writers construction grows quadratically on the same
  // histories, so the bound above separates the two.
  EXPECT_GT(static_cast<double>(reference_check(twice).edges),
            3.5 * static_cast<double>(reference_check(once).edges));
}

}  // namespace
}  // namespace repli::check

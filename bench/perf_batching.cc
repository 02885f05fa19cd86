// The batched replication fast path, measured: abcast submission batching,
// group commit, and writeset coalescing amortize one ordering/agreement
// round over many transactions. Sweeps batch_max_ops x replicas under a
// concurrent uniform workload, checks one-copy serializability on every
// run, and verifies the headline claim: >= 3x fewer messages per operation
// for active and eager-update-everywhere-abcast at batch_max_ops >= 8.
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "bench/common.hh"
#include "check/serializability.hh"
#include "util/rng.hh"

using namespace repli;

namespace {

struct BatchedRun {
  bench::RunStats stats;
  bool serializable = false;
};

/// Closed-loop uniform workload with enough concurrency to fill batches:
/// many clients, short think times, read-modify-write updates (so the
/// serializability checker has real data dependencies to order).
BatchedRun run_batched(core::TechniqueKind kind, int replicas, int batch_max_ops,
                       std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = replicas;
  cfg.clients = 24;
  cfg.seed = seed;
  cfg.batch_max_ops = batch_max_ops;
  cfg.batch_flush_us = 800;  // wide windows: this bench trades latency for traffic
  core::Cluster cluster(cfg);

  util::Rng rng(seed * 7919 + 13);
  constexpr int kOpsPerClient = 16;
  constexpr int kKeys = 16;  // uniform access, no skew
  std::vector<int> remaining(static_cast<std::size_t>(cfg.clients), kOpsPerClient);
  int outstanding = 0;

  std::function<void(int)> issue = [&](int c) {
    auto& left = remaining[static_cast<std::size_t>(c)];
    if (left == 0) return;
    --left;
    ++outstanding;
    const auto key = "key-" + std::to_string(rng.uniform(0, kKeys - 1));
    const auto op = rng.uniform01() < 0.5 ? core::op_add(key, 1) : core::op_get(key);
    cluster.submit_op(c, op, [&, c](const core::ClientReply&) {
      --outstanding;
      const auto think = static_cast<sim::Time>(rng.exponential(100.0));  // ~100us
      cluster.sim().schedule_after(think, [&issue, c] { issue(c); });
    });
  };
  for (int c = 0; c < cfg.clients; ++c) issue(c);

  auto work_left = [&] {
    if (outstanding > 0) return true;
    for (const int left : remaining) {
      if (left > 0) return true;
    }
    return false;
  };
  const sim::Time t0 = cluster.sim().now();
  int guard = 0;
  while (work_left() && ++guard < 2'000'000) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  const sim::Time busy_span = cluster.sim().now() - t0;
  cluster.settle(3 * sim::kSec);

  BatchedRun run;
  run.stats = bench::collect_run_stats(cluster, kind, busy_span);
  const auto report = check::check_one_copy_serializability(cluster.history());
  run.serializable = report.serializable && report.write_orders_agree;
  bench::maybe_write_trace(cluster, "batching-" + run.stats.technique +
                                        "-b" + std::to_string(batch_max_ops));
  return run;
}

}  // namespace

int main() {
  bench::print_header("Performance study (d): the batched replication fast path");
  std::cout << "  24 clients, 16 ops each, uniform keys, 50% read-modify-writes,\n"
            << "  ~100us think time and an 800us flush window (enough concurrency\n"
            << "  to fill batches; batching trades commit latency for traffic).\n"
            << "  batch_max_ops=1 is the baseline: a batch of one is a group of one.\n";

  const std::vector<core::TechniqueKind> kinds = {
      core::TechniqueKind::Active,       core::TechniqueKind::SemiActive,
      core::TechniqueKind::EagerAbcast,  core::TechniqueKind::Certification,
      core::TechniqueKind::EagerPrimary, core::TechniqueKind::EagerLocking,
      core::TechniqueKind::Passive,
  };
  const std::vector<int> batches = {1, 4, 8, 16};
  constexpr std::uint64_t kSeed = 23;

  std::vector<bench::BenchRow> rows;
  // msgs_per_op keyed by (technique, replicas, batch) for the verdicts.
  std::map<std::tuple<std::string, int, int>, BatchedRun> runs;

  std::cout << "\n  C1: batch_max_ops sweep (3 replicas) — msgs/op, throughput, p50 latency\n\n";
  std::cout << std::left << std::setw(38) << "  technique" << std::right;
  for (const int b : batches) std::cout << std::setw(12) << ("batch=" + std::to_string(b));
  std::cout << "\n";
  bench::print_rule(86);
  for (const auto kind : kinds) {
    std::cout << std::left << std::setw(38)
              << ("  " + std::string(core::technique_name(kind))) << std::right;
    for (const int b : batches) {
      auto run = run_batched(kind, 3, b, kSeed);
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(1) << run.stats.msgs_per_op;
      std::cout << std::setw(12) << cell.str();
      rows.push_back({run.stats,
                      {{"batch_max_ops", static_cast<double>(b)},
                       {"batch_flush_us", 800.0},
                       {"serializable", run.serializable ? 1.0 : 0.0}}});
      runs.emplace(std::make_tuple(run.stats.technique, 3, b), std::move(run));
    }
    std::cout << "\n";
  }
  std::cout << "  (cells are msgs/op; full stats land in BENCH_perf_batching.json)\n";

  std::cout << "\n  C2: does batching still pay at 5 replicas? (batch 1 vs 8)\n\n";
  std::cout << std::left << std::setw(38) << "  technique" << std::right << std::setw(14)
            << "unbatched" << std::setw(14) << "batch=8" << std::setw(12) << "reduction"
            << "\n";
  bench::print_rule(86);
  for (const auto kind : kinds) {
    const auto base = run_batched(kind, 5, 1, kSeed);
    const auto fast = run_batched(kind, 5, 8, kSeed);
    const double reduction =
        fast.stats.msgs_per_op > 0 ? base.stats.msgs_per_op / fast.stats.msgs_per_op : 0.0;
    std::cout << std::left << std::setw(38)
              << ("  " + std::string(core::technique_name(kind))) << std::right << std::setw(14)
              << std::fixed << std::setprecision(1) << base.stats.msgs_per_op << std::setw(14)
              << fast.stats.msgs_per_op << std::setw(11) << std::setprecision(2) << reduction
              << "x\n";
    rows.push_back({base.stats,
                    {{"batch_max_ops", 1.0},
                     {"batch_flush_us", 800.0},
                     {"serializable", base.serializable ? 1.0 : 0.0}}});
    rows.push_back({fast.stats,
                    {{"batch_max_ops", 8.0},
                     {"batch_flush_us", 800.0},
                     {"serializable", fast.serializable ? 1.0 : 0.0}}});
  }

  std::cout << "\n  verdicts (3 replicas, uniform workload):\n";
  bool all_ok = true;
  for (const auto kind :
       {core::TechniqueKind::Active, core::TechniqueKind::EagerAbcast}) {
    const std::string name(core::technique_name(kind));
    const auto& base = runs.at(std::make_tuple(name, 3, 1));
    const auto& fast = runs.at(std::make_tuple(name, 3, 8));
    const double reduction =
        fast.stats.msgs_per_op > 0 ? base.stats.msgs_per_op / fast.stats.msgs_per_op : 0.0;
    const bool ok = reduction >= 3.0;
    all_ok = all_ok && ok;
    std::cout << "    " << std::left << std::setw(36) << name << " msgs/op "
              << std::fixed << std::setprecision(1) << base.stats.msgs_per_op << " -> "
              << fast.stats.msgs_per_op << "  (" << std::setprecision(2) << reduction
              << "x, need >= 3x)  " << bench::verdict(ok) << "\n";
  }
  bool all_serializable = true;
  bool all_converged = true;
  for (const auto& [key, run] : runs) {
    all_serializable = all_serializable && run.serializable;
    all_converged = all_converged && run.stats.converged;
  }
  std::cout << "    " << std::left << std::setw(36) << "one-copy serializability"
            << " every run in the sweep               " << bench::verdict(all_serializable)
            << "\n";
  std::cout << "    " << std::left << std::setw(36) << "replica convergence"
            << " every run in the sweep               " << bench::verdict(all_converged)
            << "\n";

  bench::write_bench_json("perf_batching", rows);
  return all_ok && all_serializable && all_converged ? 0 : 1;
}

// Substrate microbenchmarks: raw simulator event throughput, wire codec
// cost, lock-manager acquire/release, event-queue push/pop (in time order
// and shuffled), the 1SR checker's cost per committed transaction at two
// history lengths, and
// end-to-end simulated cost of the two ABCAST implementations (the
// sequencer-vs-consensus ablation DESIGN.md calls out).
//
// Two modes in one binary:
//  - default: fixed-iteration measured loops that emit
//    BENCH_micro_substrate.json (ns/op, allocs/op per isolated substrate
//    op, for replikit-report and the perf-regression gate) plus
//    PROF_micro_substrate.json (per-cost-center attribution).
//  - any --benchmark_* flag: the google-benchmark suite as before
//    (auto-calibrated, human-oriented; numbers do not reach the artifacts).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <tuple>

#include "bench/common.hh"
#include "check/serializability.hh"
#include "core/cluster.hh"
#include "db/lock.hh"
#include "gcs/abcast_consensus.hh"
#include "gcs/abcast_sequencer.hh"
#include "obs/profile.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/rng.hh"
#include "wire/message.hh"

using namespace repli;

namespace {

struct MicroMsg : wire::MessageBase<MicroMsg> {
  static constexpr const char* kTypeName = "bench.MicroMsg";
  std::uint64_t a = 0;
  std::string payload;
  std::vector<std::int64_t> numbers;
  template <class Ar>
  void fields(Ar& ar) {
    ar(a);
    ar(payload);
    ar(numbers);
  }
};

MicroMsg make_micro_msg(std::size_t payload_bytes) {
  MicroMsg msg;
  msg.a = 123456789;
  msg.payload = std::string(payload_bytes, 'x');
  for (int i = 0; i < 16; ++i) msg.numbers.push_back(i * i);
  return msg;
}

// -- google-benchmark suite (opt-in via --benchmark_* flags) ----------------

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_WireEncodeDecode(benchmark::State& state) {
  const MicroMsg msg = make_micro_msg(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto encoded = wire::encode_message(msg);
    bytes += encoded.size();
    const auto decoded = wire::decode_message(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireEncodeDecode)->Arg(16)->Arg(256)->Arg(4096);

/// Minimal process host for components benched outside a cluster.
struct BenchHost : sim::Process {
  BenchHost(sim::NodeId id, sim::Simulator& sim) : Process(id, sim, "bench-host") {}
  void on_message(sim::NodeId /*from*/, wire::MessagePtr /*msg*/) override {}
};

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Simulator sim(1);
  auto& host = sim.spawn<BenchHost>();
  db::LockManager locks(host);
  std::uint64_t txn_seq = 0;
  for (auto _ : state) {
    const db::TxnId txn = "t" + std::to_string(txn_seq++);
    bool granted = false;
    locks.acquire(txn, static_cast<std::int64_t>(txn_seq), "key-0", db::LockMode::Exclusive,
                  [&granted] { granted = true; }, [] {});
    locks.release_all(txn);
    benchmark::DoNotOptimize(granted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_EventQueuePushPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int counter = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_at(i, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueuePushPop);

/// Wall-clock cost of simulating a full client round trip, plus the
/// *simulated* latency exposed as a counter — sequencer vs consensus ABCAST.
void abcast_roundtrip(benchmark::State& state, int impl) {
  double total_sim_latency = 0;
  int runs = 0;
  for (auto _ : state) {
    core::ClusterConfig cfg;
    cfg.kind = core::TechniqueKind::Active;
    cfg.active_abcast_impl = impl;
    cfg.replicas = 3;
    cfg.seed = 7;
    core::Cluster cluster(cfg);
    const auto reply = cluster.run_op(0, core::op_put("k", "v"), 60 * sim::kSec);
    if (reply.ok && !cluster.history().ops().empty()) {
      const auto& rec = cluster.history().ops().front();
      total_sim_latency += static_cast<double>(rec.response - rec.invoke);
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["simulated_latency_us"] =
        benchmark::Counter(total_sim_latency / runs);
  }
}
void BM_AbcastSequencer(benchmark::State& state) { abcast_roundtrip(state, 0); }
void BM_AbcastConsensus(benchmark::State& state) { abcast_roundtrip(state, 1); }
BENCHMARK(BM_AbcastSequencer);
BENCHMARK(BM_AbcastConsensus);

// -- artifact mode: fixed-iteration measured loops --------------------------

std::uint64_t steady_ns_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs `op` `iters` times and returns a MicroRow with ns/op and heap
/// activity per op (thread-local allocation counters; exact, not sampled).
template <typename Fn>
bench::MicroRow measure(const std::string& name, std::uint64_t iters, Fn&& op) {
  const std::uint64_t a0 = obs::thread_alloc_count();
  const std::uint64_t b0 = obs::thread_alloc_bytes();
  const std::uint64_t t0 = steady_ns_now();
  for (std::uint64_t i = 0; i < iters; ++i) op(i);
  const std::uint64_t t1 = steady_ns_now();
  const std::uint64_t a1 = obs::thread_alloc_count();
  const std::uint64_t b1 = obs::thread_alloc_bytes();
  bench::MicroRow row;
  row.op = name;
  row.ops = iters;
  const auto n = static_cast<double>(iters);
  row.ns_per_op = static_cast<double>(t1 - t0) / n;
  row.allocs_per_op = static_cast<double>(a1 - a0) / n;
  row.alloc_bytes_per_op = static_cast<double>(b1 - b0) / n;
  std::cout << "  " << name << ": " << row.ns_per_op << " ns/op, " << row.allocs_per_op
            << " allocs/op (" << iters << " iters)\n";
  return row;
}

/// Rescales a row measured per batch to per item: the number the gate
/// should hold steady.
bench::MicroRow per_item(const bench::MicroRow& row, std::uint64_t items_per_iter) {
  const auto k = static_cast<double>(items_per_iter);
  bench::MicroRow scaled = row;
  scaled.ops = row.ops * items_per_iter;
  scaled.ns_per_op = row.ns_per_op / k;
  scaled.allocs_per_op = row.allocs_per_op / k;
  scaled.alloc_bytes_per_op = row.alloc_bytes_per_op / k;
  return scaled;
}

/// One event of the shuffled-delivery row: on dispatch it schedules a copy
/// of itself at a seeded random delay until the batch's budget runs out.
/// 56 bytes, shaped like Network's delivery lambda (a few pointers and ids
/// plus a shared_ptr payload).
struct ShuffledDelivery {
  sim::Simulator* sim;
  util::Rng* rng;
  std::uint64_t* left;
  std::uint64_t* sum;
  std::int64_t seq;
  std::shared_ptr<int> payload;

  void operator()() {
    *sum += static_cast<std::uint64_t>(seq + *payload);
    if (*left == 0) return;
    --*left;
    sim->schedule_after(rng->uniform(1, 1000), ShuffledDelivery{*this});
  }
};
static_assert(sizeof(ShuffledDelivery) == 56);

/// A contended serial history like txn_contention's: `txns` transactions,
/// each a read-modify-write of 4 keys drawn zipf 0.9 over 32, installed in
/// the same order at 3 replicas whose records interleave.
core::History contended_history(int txns) {
  constexpr int kReplicas = 3;
  util::Rng rng(42);
  const util::Zipf zipf(32, 0.9);
  core::History history;
  std::vector<std::map<db::Key, std::uint64_t>> installed(kReplicas);  // key -> commit_seq
  for (int t = 0; t < txns; ++t) {
    std::vector<db::Key> keys;
    for (int i = 0; i < 4; ++i) keys.push_back("c" + std::to_string(zipf.sample(rng)));
    for (int r = 0; r < kReplicas; ++r) {
      core::CommitRecord rec;
      rec.replica = r;
      rec.txn = "t" + std::to_string(t);
      rec.commit_seq = static_cast<std::uint64_t>(t) + 1;
      for (const auto& key : keys) {
        rec.read_versions[key] = installed[r][key];
        rec.writes[key] = "v";
      }
      for (const auto& key : keys) installed[r][key] = rec.commit_seq;
      history.commit(std::move(rec));
    }
  }
  return history;
}

int artifact_main() {
  bench::print_header("Substrate microbenchmarks (artifact mode)");
  obs::Profiler::global().enable();
  std::vector<bench::MicroRow> rows;
  std::uint64_t total_ops = 0;

  {  // wire codec, small message (the common case on the hot path)
    const MicroMsg msg = make_micro_msg(64);
    const auto encoded = wire::encode_message(msg);
    constexpr std::uint64_t kIters = 100'000;
    rows.push_back(measure("wire.encode", kIters, [&](std::uint64_t) {
      const auto bytes = wire::encode_message(msg);
      benchmark::DoNotOptimize(bytes);
    }));
    rows.push_back(measure("wire.decode", kIters, [&](std::uint64_t) {
      const auto decoded = wire::decode_message(encoded);
      benchmark::DoNotOptimize(decoded);
    }));
    total_ops += 2 * kIters;
  }

  {  // event queue push+pop through a real run loop, batches of 1024
    constexpr std::uint64_t kBatches = 64;
    constexpr std::uint64_t kPerBatch = 1024;
    const auto row = measure("sim.event_push_pop", kBatches, [&](std::uint64_t) {
      sim::Simulator sim(1);
      int counter = 0;
      for (std::uint64_t i = 0; i < kPerBatch; ++i) {
        sim.schedule_at(static_cast<sim::Time>(i), [&counter] { ++counter; });
      }
      sim.run();
      benchmark::DoNotOptimize(counter);
    });
    rows.push_back(per_item(row, kPerBatch));
    total_ops += rows.back().ops;
  }

  {  // cancel churn: 75% of events cancelled (crosses the bulk-compaction
     // threshold), then one stale cancel per executed event — both dropping
     // dead keys and the stale-handle no-op path must stay O(1).
    constexpr std::uint64_t kBatches = 64;
    constexpr std::uint64_t kPerBatch = 1024;
    std::vector<sim::EventHandle> ids;
    const auto row = measure("sim.cancel_churn", kBatches, [&](std::uint64_t) {
      sim::Simulator sim(1);
      int counter = 0;
      ids.clear();
      for (std::uint64_t i = 0; i < kPerBatch; ++i) {
        ids.push_back(sim.schedule_at(static_cast<sim::Time>(i), [&counter] { ++counter; }));
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i % 4 != 0) sim.cancel(ids[i]);
      }
      sim.run();
      for (const auto id : ids) sim.cancel(id);  // all stale: no-ops
      benchmark::DoNotOptimize(counter);
    });
    rows.push_back(per_item(row, kPerBatch));
    total_ops += rows.back().ops;
  }

  {  // uncontended lock acquire+release (the lock-table floor)
    sim::Simulator sim(1);
    auto& host = sim.spawn<BenchHost>();
    db::LockManager locks(host);
    constexpr std::uint64_t kIters = 50'000;
    rows.push_back(measure("db.lock_acquire_release", kIters, [&](std::uint64_t i) {
      const db::TxnId txn = "t" + std::to_string(i);
      locks.acquire(txn, static_cast<std::int64_t>(i), "key-0", db::LockMode::Exclusive,
                    [] {}, [] {});
      locks.release_all(txn);
    }));
    total_ops += kIters;
  }

  // The PROF artifact covers the substrate rows above: its per-op figures
  // divide by their ops alone. The checker and shuffled-delivery rows below
  // report their own cost in the micro artifact.
  bench::write_prof_json("micro_substrate", total_ops);

  // 1SR check of a whole contended history, per committed transaction, at
  // 1x and 2x length: a linear checker keeps the two rows level. Both
  // lengths sit past the point (about 4000 txns on a 2 MB-L2 core) where
  // the checker's working set leaves L2 and its cost per txn steps up ~1.3x,
  // so this wall-clock pair does not gate growth below 8000 txns;
  // Serializability.EdgeCountGrowsLinearlyWithHistory does, with no timing.
  for (const auto& [name, txns, reps] : {std::tuple{"check.one_copy_sr_1x", 8000, 8},
                                         std::tuple{"check.one_copy_sr_2x", 16000, 4}}) {
    const core::History history = contended_history(txns);
    const auto row = measure(name, static_cast<std::uint64_t>(reps), [&](std::uint64_t) {
      const auto report = check::check_one_copy_serializability(history);
      util::ensure(report.serializable, "micro_substrate: serial history must pass 1SR");
    });
    rows.push_back(per_item(row, static_cast<std::uint64_t>(txns)));
  }

  {  // shuffled delivery: ~256 events queued at seeded random times, one
     // push per pop, so every push and pop sifts through a heap of
     // realistic depth (sim.event_push_pop pushes in time order, so its
     // pushes never sift). Outside the PROF denominator, like the checker
     // rows.
    constexpr std::uint64_t kBatches = 16;
    constexpr std::uint64_t kPerBatch = 16384;
    constexpr std::uint64_t kQueued = 256;
    const auto payload = std::make_shared<int>(1);
    const auto row = measure("sim.event_shuffled_delivery", kBatches, [&](std::uint64_t b) {
      sim::Simulator sim(1);
      util::Rng rng(b + 1);
      std::uint64_t left = kPerBatch - kQueued;
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kQueued; ++i) {
        sim.schedule_after(rng.uniform(1, 1000),
                           ShuffledDelivery{&sim, &rng, &left, &sum,
                                            static_cast<std::int64_t>(i), payload});
      }
      sim.run();
      benchmark::DoNotOptimize(sum);
    });
    rows.push_back(per_item(row, kPerBatch));
  }

  bench::write_micro_json("micro_substrate", rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::configure_logging_from_env();
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) gbench = true;
  }
  if (!gbench) return artifact_main();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Whole-run determinism: a cluster run is a pure function of (config, seed).
// Same seed -> byte-identical storage digests, message counts, latency
// histories, event order and Chrome trace; different seed -> (almost
// surely) different timings. A run owns all of its mutable state, so runs
// on concurrent threads give the same bytes as runs one after the other.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <sstream>
#include <thread>
#include <vector>

#include "core/cluster.hh"
#include "obs/export_chrome.hh"
#include "tests/core/core_test_util.hh"

namespace repli::core {
namespace {

struct RunFingerprint {
  std::vector<std::uint64_t> digests;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::vector<sim::Time> latencies;
  std::uint64_t schedule_digest = 0;
  std::string chrome_trace;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_once(TechniqueKind kind, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 2;
  cfg.seed = seed;
  cfg.net.jitter_mean = 300;
  cfg.net.drop_probability = 0.05;
  Cluster cluster(cfg);
  for (int i = 0; i < 8; ++i) {
    cluster.run_op(i % 2, i % 3 == 0 ? op_add("n", 1) : op_put("k" + std::to_string(i), "v"),
                   120 * sim::kSec);
  }
  cluster.settle(5 * sim::kSec);
  RunFingerprint fp;
  fp.digests = cluster.storage_digests();
  fp.messages = cluster.sim().net().messages_sent();
  fp.bytes = cluster.sim().net().bytes_sent();
  for (const auto& op : cluster.history().ops()) fp.latencies.push_back(op.response - op.invoke);
  fp.schedule_digest = cluster.sim().schedule_digest();
  std::ostringstream trace;
  obs::write_chrome_trace(cluster.sim().tracer(), trace);
  fp.chrome_trace = trace.str();
  return fp;
}

class WholeRunDeterminism : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(WholeRunDeterminism, SameSeedSameRun) {
  const auto a = run_once(GetParam(), 1234);
  const auto b = run_once(GetParam(), 1234);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_TRUE(a.chrome_trace == b.chrome_trace);
}

TEST_P(WholeRunDeterminism, DifferentSeedDifferentTimings) {
  const auto a = run_once(GetParam(), 1);
  const auto b = run_once(GetParam(), 2);
  // State can coincide; the full fingerprint (timings included) should not.
  EXPECT_FALSE(a == b);
}

TEST_P(WholeRunDeterminism, ConcurrentRunsMatchSerialRuns) {
  constexpr std::array<std::uint64_t, 2> kSeeds = {1234, 1235};
  std::array<RunFingerprint, 2> serial;
  for (std::size_t i = 0; i < kSeeds.size(); ++i) serial[i] = run_once(GetParam(), kSeeds[i]);

  std::array<RunFingerprint, 2> concurrent;
  std::array<std::exception_ptr, 2> errors;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        concurrent[i] = run_once(GetParam(), kSeeds[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    if (errors[i]) std::rethrow_exception(errors[i]);
    EXPECT_EQ(concurrent[i].digests, serial[i].digests);
    EXPECT_EQ(concurrent[i].messages, serial[i].messages);
    EXPECT_EQ(concurrent[i].bytes, serial[i].bytes);
    EXPECT_EQ(concurrent[i].latencies, serial[i].latencies);
    EXPECT_EQ(concurrent[i].schedule_digest, serial[i].schedule_digest);
    // Not EXPECT_EQ: a mismatch would print two whole traces.
    EXPECT_TRUE(concurrent[i].chrome_trace == serial[i].chrome_trace)
        << "Chrome traces differ (" << concurrent[i].chrome_trace.size() << " vs "
        << serial[i].chrome_trace.size() << " bytes)";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, WholeRunDeterminism,
                         ::testing::ValuesIn(testing::all_kinds()),
                         testing::kind_param_name);

}  // namespace
}  // namespace repli::core

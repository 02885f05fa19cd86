// The benchmark's three workloads and the per-pass measurements they yield.
//
// A pass runs one workload once, start to finish, from inputs generated up
// front from the workload seed. Everything it measures falls on one of two
// clocks:
//   - SimTotals: the simulated clock and protocol counters (latency, msgs,
//     aborts, registry series). A pure function of the seed: every pass of
//     one runner yields identical SimTotals, traced or not.
//   - HostTotals: wall time, heap high-water marks and profiler buckets,
//     which vary with the host's load from pass to pass.
// Every number is read from outside the library: wall time around public
// calls, and the public accessors of Cluster, Simulator, Network, Tracer,
// Trace and obs::Registry.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster.hh"
#include "explore/trial.hh"
#include "obs/critpath.hh"
#include "obs/profile.hh"

namespace perfbench {

using repli::core::TechniqueKind;
namespace sim = repli::sim;

enum class Workload { AbcastStream, TxnContention, ExploreSweep };

std::optional<Workload> workload_from_name(std::string_view name);
std::string_view workload_name(Workload w);

/// Run length of one pass. `full` is what the benchmark measures; `tiny`
/// keeps the self-test fast.
struct Scale {
  int abcast_ops_per_client = 750;
  int txn_ops_per_client = 1000;
  int txn_rounds = 2;
  int explore_trials = 12;  // per technique

  static Scale full() { return {}; }
  static Scale tiny() { return {40, 20, 1, 1}; }
};

/// Count-weighted aggregate of one registry histogram over many clusters.
/// util::Histogram does not expose its samples, so percentiles of a
/// multi-cluster pass are the sample-count-weighted mean of each cluster's
/// percentile (exact when the pass has one cluster).
struct HistAgg {
  double count = 0;
  double sum_mean = 0;
  double sum_p50 = 0;
  double sum_p99 = 0;

  double mean() const { return count > 0 ? sum_mean / count : 0; }
  double p50() const { return count > 0 ? sum_p50 / count : 0; }
  double p99() const { return count > 0 ? sum_p99 / count : 0; }
};

struct TechniqueTotals {
  std::vector<double> latency_us;  // ok client ops, simulated us
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t msgs = 0;   // heartbeats excluded
  std::int64_t bytes = 0;  // heartbeats excluded
  std::int64_t wasted = 0;
  std::int64_t abcast_delivered = 0;
  sim::Time busy_us = 0;   // first invoke to last response, summed over clusters
};

struct SimTotals {
  std::map<std::string, TechniqueTotals> techniques;  // by technique name
  std::map<std::string, std::int64_t> family_msgs;    // wire family -> messages
  std::map<std::string, std::int64_t> family_bytes;
  std::map<std::string, std::int64_t> counters;       // registry counters, summed
  std::map<std::string, HistAgg> histograms;          // registry histograms
  std::int64_t heartbeats = 0;
  sim::Time sim_us = 0;  // simulated time of every cluster, summed
  std::uint64_t events = 0;
  std::uint64_t digest = 14695981039346656037ull;  // schedule digests, folded
  std::int64_t spans = 0;
  std::int64_t flows = 0;
  std::int64_t msglog = 0;
  int runs = 0;  // clusters (cluster workloads) or trials (explore_sweep)
  int check_failures = 0;
  std::string first_violation;
  std::vector<std::string> unmapped_types;  // wire types with no family
  std::vector<double> trial_events;
  std::vector<double> trial_faults;

  // Critical-path waterfall (attribution pass only): simulated us per
  // segment, summed over committed transactions.
  std::array<double, repli::obs::kSegmentKindCount> crit_us{};
  double crit_total_us = 0;
  double crit_attributed_us = 0;

  std::int64_t ok_ops() const;
  std::int64_t attempted_ops() const;
};

/// Wall time, split into segments that do identical work in every pass of
/// one runner, so the same segment can be compared across passes.
struct HostTotals {
  // Client loop, per 10 ms simulated step (explore_sweep: per trial,
  // checks included). The benchmark's own harvesting is never timed.
  std::vector<double> loop_s;
  // check::run_checks, per cluster (cluster workloads only).
  std::vector<double> check_s;
  // The rest of a cluster's life, per cluster: construction, then settling
  // (cluster workloads only).
  std::vector<double> other_s;
  std::uint64_t loop_events = 0;  // events dispatched inside loop_s
  // (ops completed, peak RSS KB) at fixed checkpoints of the pass.
  std::vector<std::pair<std::int64_t, long>> rss_checkpoints;
  std::array<repli::obs::CostBucket, repli::obs::kCostCenterCount> prof{};
};

struct Pass {
  SimTotals sim;
  HostTotals host;
};

struct PassOptions {
  bool profile = false;     // global profiler on for the whole pass
  bool critpath = false;    // reconstruct critical paths (untimed work)
  bool sample_rss = false;  // record RSS checkpoints
};

/// Peak resident set size of this process so far, in KB.
long peak_rss_kb();

class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed, const Scale& scale);

  /// Wall seconds to build and start each cluster a pass needs, one
  /// segment per cluster. Generating the inputs is the benchmark's own
  /// work and not part of set-up: on txn_contention it takes about 50
  /// times as long as building the clusters and would hide a slower build.
  std::vector<double> time_setup() const;

  Pass run(const PassOptions& options) const;

 private:
  struct Script {
    std::vector<repli::db::Operation> ops;
    std::vector<sim::Time> think;  // after each reply
  };
  struct ClusterInput {
    repli::core::ClusterConfig config;
    std::vector<Script> clients;
  };

  void run_cluster(const ClusterInput& input, const PassOptions& options, Pass& pass,
                   std::int64_t& completed, std::int64_t checkpoint_every) const;
  void run_explore(const PassOptions& options, Pass& pass) const;

  Workload workload_;
  std::vector<ClusterInput> clusters_;               // cluster workloads
  std::vector<repli::explore::TrialConfig> trials_;  // explore_sweep
};

}  // namespace perfbench

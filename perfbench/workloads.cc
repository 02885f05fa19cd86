#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "check/batch.hh"
#include "explore/explore.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"

namespace perfbench {

namespace core = repli::core;
namespace explore = repli::explore;
namespace obs = repli::obs;
namespace util = repli::util;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFF;
    digest *= 1099511628211ull;  // FNV-1a prime
  }
  return digest;
}

/// splitmix64 finalizer.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Every input stream is derived from the workload seed: one independent
/// seed per (purpose, index).
enum class Stream : std::uint64_t { Cluster = 1, Client = 2, Schedule = 3 };
std::uint64_t derive(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return mix(seed ^ mix((static_cast<std::uint64_t>(stream) << 32) + index));
}

constexpr TechniqueKind kTxnTechniques[] = {
    TechniqueKind::EagerLocking,
    TechniqueKind::Certification,
    TechniqueKind::EagerPrimary,
};

/// Attempts a txn_contention transaction may make before it gives up.
constexpr int kTxnMaxAttempts = 100;

/// Simulated time after the last reply in which propagation, acks and
/// reconciliation drain before the digests are compared.
constexpr sim::Time kSettle = 1 * sim::kSec;
/// A cluster pass that has not finished by this simulated time counts its
/// unanswered ops as failed.
constexpr sim::Time kSimBudget = 600 * sim::kSec;

/// Wire type -> traffic family ("client", "link_data", "link_ack",
/// "heartbeat", or a direct-send family); empty when the type is unknown.
std::string_view wire_family(std::string_view type) {
  if (type == "core.ClientRequest" || type == "core.ClientReply" || type == "core.Redirect") {
    return "client";
  }
  if (type == "gcs.LinkData" || type == "gcs.LinkPack") return "link_data";
  if (type == "gcs.LinkAck") return "link_ack";
  if (type == "gcs.Heartbeat") return "heartbeat";
  // Payloads sent without the reliable link. None is expected today (every
  // gcs, 2PC and technique payload rides inside gcs.LinkData); they are
  // still attributed by layer so a new direct send is counted, not lost.
  if (type.starts_with("gcs.")) return "gcs_direct";
  if (type.starts_with("db.")) return "db_direct";
  if (type.starts_with("core.")) return "core_direct";
  return {};
}

/// Folds one finished cluster into the pass totals: client history,
/// traffic by wire family, registry series, tracer and message-log sizes.
void harvest(core::Cluster& cluster, SimTotals& t) {
  auto& s = cluster.sim();
  auto& tech = t.techniques[std::string(core::technique_name(cluster.config().kind))];

  sim::Time first = -1;
  sim::Time last = 0;
  for (const auto& op : cluster.history().ops()) {
    ++tech.attempted;
    if (first < 0 || op.invoke < first) first = op.invoke;
    if (op.response != 0 && op.ok) {
      ++tech.ok;
      tech.latency_us.push_back(static_cast<double>(op.response - op.invoke));
      last = std::max(last, op.response);
    } else {
      ++tech.failed;
    }
  }
  if (first >= 0 && last > first) tech.busy_us += last - first;

  const auto& net = s.net();
  for (const auto& [type, count] : net.per_type_count()) {
    const auto family = wire_family(type);
    if (family.empty()) {
      t.unmapped_types.emplace_back(type);
    } else if (family == "heartbeat") {
      t.heartbeats += count;
    } else {
      t.family_msgs[std::string(family)] += count;
      tech.msgs += count;
    }
  }
  for (const auto& [type, bytes] : net.per_type_bytes()) {
    const auto family = wire_family(type);
    if (family.empty() || family == "heartbeat") continue;
    t.family_bytes[std::string(family)] += bytes;
    tech.bytes += bytes;
  }

  const auto& reg = s.metrics();
  for (const auto& [key, counter] : reg.counters()) t.counters[key.name] += counter.value();
  for (const auto& [key, hist] : reg.histograms()) {
    if (!key.labels.empty()) continue;
    const auto sum = obs::summarize(hist.data());
    if (!sum.defined) continue;
    const auto n = static_cast<double>(sum.count);
    auto& agg = t.histograms[key.name];
    agg.count += n;
    agg.sum_mean += sum.mean * n;
    agg.sum_p50 += sum.p50 * n;
    agg.sum_p99 += sum.p99 * n;
  }
  tech.wasted += reg.counter_value("certification.aborts") +
                 reg.counter_value("core.lock_aborts") + reg.counter_value("lazy.undone") +
                 reg.counter_value("client.retries");
  tech.abcast_delivered += reg.counter_value("gcs.abcast.delivered");

  t.sim_us += s.now();
  t.events += s.events_dispatched();
  t.digest = fold(t.digest, s.schedule_digest());
  t.spans += static_cast<std::int64_t>(s.tracer().size());
  t.flows += static_cast<std::int64_t>(s.tracer().flows().size());
  t.msglog += static_cast<std::int64_t>(s.trace().messages().size());
  ++t.runs;
}

void add_critpath(core::Cluster& cluster, SimTotals& t) {
  const auto summary = obs::summarize(obs::critical_paths(cluster.sim().tracer()));
  t.crit_total_us += static_cast<double>(summary.total_us);
  t.crit_attributed_us += static_cast<double>(summary.attributed_us);
  for (const auto& seg : summary.segments) {
    t.crit_us[static_cast<std::size_t>(seg.kind)] +=
        seg.mean_us * static_cast<double>(summary.txns);
  }
}

/// `prefix` followed by `n` in decimal.
std::string numbered(std::string prefix, std::int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

void record_violation(SimTotals& t, const std::string& what) {
  ++t.check_failures;
  if (t.first_violation.empty()) t.first_violation = what;
}

/// explore_sweep's fault plans come from one fixed master seed, so every
/// benchmark seed sweeps the same faults.
constexpr std::uint64_t kExploreMasterSeed = 1;

/// explore_sweep's inputs: `trials` trials of every technique under
/// explore's default fault envelope (crash, partition, jitter, tie; at most
/// 2 faults), with each trial's workload and schedule streams from `seed`.
std::vector<explore::TrialConfig> derive_trials(std::uint64_t seed, int trials) {
  std::vector<explore::TrialConfig> out;
  for (const auto& info : core::all_techniques()) {
    explore::ExploreConfig ec;
    ec.kind = info.kind;
    ec.seed = kExploreMasterSeed;
    for (int t = 0; t < trials; ++t) {
      auto tc = explore::trial_config(ec, t);
      tc.workload_seed = derive(seed, Stream::Cluster, static_cast<std::uint64_t>(t));
      tc.schedule_seed = derive(seed, Stream::Schedule, static_cast<std::uint64_t>(t));
      out.push_back(std::move(tc));
    }
  }
  return out;
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "abcast_stream") return Workload::AbcastStream;
  if (name == "txn_contention") return Workload::TxnContention;
  if (name == "explore_sweep") return Workload::ExploreSweep;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::AbcastStream: return "abcast_stream";
    case Workload::TxnContention: return "txn_contention";
    case Workload::ExploreSweep: return "explore_sweep";
  }
  return "?";
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::int64_t SimTotals::ok_ops() const {
  std::int64_t n = 0;
  for (const auto& [name, t] : techniques) n += t.ok;
  return n;
}

std::int64_t SimTotals::attempted_ops() const {
  std::int64_t n = 0;
  for (const auto& [name, t] : techniques) n += t.attempted;
  return n;
}

Runner::Runner(Workload workload, std::uint64_t seed, const Scale& scale)
    : workload_(workload) {
  const auto client_rng = [seed](int index) {
    return util::Rng(derive(seed, Stream::Client, static_cast<std::uint64_t>(index)));
  };
  switch (workload) {
    case Workload::AbcastStream: {
      // Sequencer ABCAST, 5 replicas, 4 closed-loop clients: 50% blind puts
      // (unique values) / 50% gets over 1024 uniform keys, 1 ms mean think.
      ClusterInput in;
      in.config.kind = TechniqueKind::Active;
      in.config.replicas = 5;
      in.config.clients = 4;
      in.config.seed = derive(seed, Stream::Cluster, 0);
      for (int c = 0; c < in.config.clients; ++c) {
        auto rng = client_rng(c);
        Script script;
        for (int i = 0; i < scale.abcast_ops_per_client; ++i) {
          const auto key = numbered("k", rng.uniform(0, 1023));
          script.ops.push_back(rng.uniform01() < 0.5
                                   ? core::op_put(key, numbered(numbered("v", c) + "-", i))
                                   : core::op_get(key));
          script.think.push_back(static_cast<sim::Time>(rng.exponential(1000.0)));
        }
        in.clients.push_back(std::move(script));
      }
      clusters_.push_back(std::move(in));
      break;
    }
    case Workload::TxnContention: {
      // Three database techniques in sequence, 3 replicas, 4 clients: 90%
      // read-modify-write (add) / 10% gets, zipf 0.9 over 32 keys, 200 us
      // mean think, batching at 8. Each round runs all three again on fresh
      // seeds: more samples for the tail without a longer-lived cluster.
      const util::Zipf zipf(32, 0.9);
      for (int index = 0; index < scale.txn_rounds * 3; ++index) {
        const auto kind = kTxnTechniques[index % 3];
        ClusterInput in;
        in.config.kind = kind;
        in.config.replicas = 3;
        in.config.clients = 4;
        in.config.batch_max_ops = 8;
        // Under this much contention the default 10 attempts let an op
        // fail now and then; the benchmark's ops must all commit.
        in.config.locking_max_attempts = kTxnMaxAttempts;
        in.config.certification_max_attempts = kTxnMaxAttempts;
        in.config.seed = derive(seed, Stream::Cluster, static_cast<std::uint64_t>(index));
        for (int c = 0; c < in.config.clients; ++c) {
          auto rng = client_rng(index * in.config.clients + c);
          Script script;
          for (int i = 0; i < scale.txn_ops_per_client; ++i) {
            const auto key = numbered("c", static_cast<std::int64_t>(zipf.sample(rng)));
            script.ops.push_back(rng.uniform01() < 0.9 ? core::op_add(key, 1)
                                                       : core::op_get(key));
            script.think.push_back(static_cast<sim::Time>(rng.exponential(200.0)));
          }
          in.clients.push_back(std::move(script));
        }
        clusters_.push_back(std::move(in));
      }
      break;
    }
    case Workload::ExploreSweep:
      trials_ = derive_trials(seed, scale.explore_trials);
      break;
  }
}

std::vector<double> Runner::time_setup() const {
  // Cluster destruction is kept out of the timed segments.
  std::vector<std::unique_ptr<core::Cluster>> built;
  std::vector<double> segments;
  const auto build = [&built, &segments](const core::ClusterConfig& config) {
    const auto t0 = Clock::now();
    built.push_back(std::make_unique<core::Cluster>(config));
    segments.push_back(seconds_since(t0));
  };
  for (const auto& in : clusters_) build(in.config);
  // explore_sweep: run_trial builds its cluster inside the timed trial, so
  // set-up is one cluster of each technique's first-trial shape.
  for (std::size_t i = 0; i < trials_.size(); ++i) {
    const auto& tc = trials_[i];
    if (i > 0 && trials_[i - 1].kind == tc.kind) continue;
    core::ClusterConfig cc;
    cc.kind = tc.kind;
    cc.replicas = tc.replicas;
    cc.clients = tc.clients;
    cc.seed = tc.workload_seed;
    build(cc);
  }
  return segments;
}

void Runner::run_cluster(const ClusterInput& input, const PassOptions& options, Pass& pass,
                         std::int64_t& completed, std::int64_t checkpoint_every) const {
  auto& host = pass.host;
  auto t0 = Clock::now();
  core::Cluster cluster(input.config);
  host.other_s.push_back(seconds_since(t0));
  auto& s = cluster.sim();
  const auto events0 = s.events_dispatched();

  std::vector<std::size_t> next(input.clients.size(), 0);
  int active = static_cast<int>(input.clients.size());
  std::function<void(int)> issue = [&](int c) {
    const auto& script = input.clients[static_cast<std::size_t>(c)];
    const std::size_t i = next[static_cast<std::size_t>(c)]++;
    cluster.submit_op(c, script.ops[i], [&, c, i](const core::ClientReply&) {
      ++completed;
      if (options.sample_rss && completed % checkpoint_every == 0) {
        host.rss_checkpoints.emplace_back(completed, peak_rss_kb());
      }
      const auto& own = input.clients[static_cast<std::size_t>(c)];
      if (i + 1 < own.ops.size()) {
        s.schedule_after(own.think[i], [&issue, c] { issue(c); });
      } else {
        --active;
      }
    });
  };

  t0 = Clock::now();
  for (int c = 0; c < static_cast<int>(input.clients.size()); ++c) issue(c);
  host.loop_s.push_back(seconds_since(t0));
  while (active > 0 && s.now() < kSimBudget) {
    t0 = Clock::now();
    s.run_until(s.now() + 10 * sim::kMsec);
    host.loop_s.push_back(seconds_since(t0));
  }
  host.loop_events += s.events_dispatched() - events0;

  t0 = Clock::now();
  cluster.settle(kSettle);
  host.other_s.push_back(seconds_since(t0));
  harvest(cluster, pass.sim);
  if (options.critpath) add_critpath(cluster, pass.sim);

  auto opts = repli::check::checks_for(input.config.kind);
  opts.taint_slow_ops = input.config.client_retry_timeout;
  t0 = Clock::now();
  const auto verdict =
      repli::check::run_checks(cluster.history(), cluster.storage_digests(), opts);
  host.check_s.push_back(seconds_since(t0));
  if (!verdict.ok) {
    record_violation(pass.sim, std::string(core::technique_name(input.config.kind)) + ": " +
                                   verdict.failed_check + ": " + verdict.violation);
  }
}

void Runner::run_explore(const PassOptions& options, Pass& pass) const {
  std::int64_t completed = 0;
  for (const auto& config : trials_) {
    auto tc = config;
    double harvest_s = 0;
    // The hook runs after run_trial's own checks, with the trial's cluster
    // still alive: the only way to read its history and counters from
    // outside. It never reports a violation, and its time is taken out of
    // the trial's.
    tc.extra_check = [&pass, &options, &harvest_s](const explore::TrialConfig&,
                                                   core::Cluster& cluster) {
      const auto t0 = Clock::now();
      harvest(cluster, pass.sim);
      if (options.critpath) add_critpath(cluster, pass.sim);
      harvest_s = seconds_since(t0);
      return std::string();
    };
    const auto t0 = Clock::now();
    const auto result = explore::run_trial(tc);
    pass.host.loop_s.push_back(seconds_since(t0) - harvest_s);
    pass.host.loop_events += result.events;
    pass.sim.trial_events.push_back(static_cast<double>(result.events));
    pass.sim.trial_faults.push_back(static_cast<double>(result.faults_injected));
    if (!result.ok) {
      record_violation(pass.sim, std::string(core::technique_name(tc.kind)) + ": " +
                                     result.failed_check + ": " + result.violation);
    }
    completed += static_cast<std::int64_t>(result.ops_ok + result.ops_failed);
    if (options.sample_rss) pass.host.rss_checkpoints.emplace_back(completed, peak_rss_kb());
  }
}

Pass Runner::run(const PassOptions& options) const {
  Pass pass;
  auto& profiler = obs::Profiler::global();
  if (options.profile) {
    profiler.clear();
    profiler.enable();
  }
  if (workload_ == Workload::ExploreSweep) {
    run_explore(options, pass);
  } else {
    std::int64_t total = 0;
    for (const auto& in : clusters_) {
      for (const auto& script : in.clients) total += static_cast<std::int64_t>(script.ops.size());
    }
    std::int64_t completed = 0;
    const std::int64_t every = std::max<std::int64_t>(1, total / 8);
    for (const auto& in : clusters_) run_cluster(in, options, pass, completed, every);
  }
  if (options.profile) {
    profiler.disable();
    pass.host.prof = profiler.buckets();
  }
  return pass;
}

}  // namespace perfbench

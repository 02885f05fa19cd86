#include "bench/common.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "db/lock.hh"
#include "obs/critpath.hh"
#include "obs/export_chrome.hh"
#include "obs/export_stats.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace repli::bench {

using core::Cluster;
using core::ClusterConfig;
using core::TechniqueKind;

namespace {

std::string bench_output_dir() {
  if (const char* env = std::getenv("REPLI_BENCH_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return ".";
}

}  // namespace

void configure_logging_from_env() {
  // Benches log at Info by default (failovers, retries, deadlocks are part
  // of the story); REPLI_LOG=off|error|info|debug overrides. Called from
  // every harness entry point (not a namespace-scope initializer, whose
  // static-init-order position relative to other globals is unspecified),
  // so fig* binaries and perf benches get the same behavior.
  static const bool done = [] {
    auto level = util::LogLevel::Info;
    if (const char* env = std::getenv("REPLI_LOG"); env != nullptr) {
      const std::string v(env);
      if (v == "off") level = util::LogLevel::Off;
      if (v == "error") level = util::LogLevel::Error;
      if (v == "info") level = util::LogLevel::Info;
      if (v == "debug") level = util::LogLevel::Debug;
    }
    util::Logger::instance().set_level(level);
    return true;
  }();
  (void)done;
}

RunStats run_workload(TechniqueKind kind, const WorkloadParams& params) {
  configure_logging_from_env();
  ClusterConfig cfg = params.overrides;
  cfg.kind = kind;
  cfg.replicas = params.replicas;
  cfg.clients = params.clients;
  cfg.seed = params.seed;
  Cluster cluster(cfg);

  util::Rng rng(params.seed * 7919 + 13);
  const util::Zipf zipf(static_cast<std::size_t>(params.keys), params.zipf_theta);

  // Closed loop per client: issue, await reply, think, repeat.
  struct ClientState {
    int remaining = 0;
    int failed = 0;
  };
  std::vector<ClientState> states(static_cast<std::size_t>(params.clients));
  for (auto& s : states) s.remaining = params.ops_per_client;
  int outstanding = 0;

  std::function<void(int)> issue = [&](int c) {
    auto& state = states[static_cast<std::size_t>(c)];
    if (state.remaining == 0) return;
    --state.remaining;
    ++outstanding;
    const auto key = "key-" + std::to_string(zipf.sample(rng));
    db::Operation op;
    if (rng.uniform01() < params.write_ratio) {
      op = params.rmw_writes ? core::op_add(key, 1)
                             : core::op_put(key, "v" + std::to_string(rng.uniform(0, 999)));
    } else {
      op = core::op_get(key);
    }
    cluster.submit_op(c, op, [&, c](const core::ClientReply& reply) {
      --outstanding;
      if (!reply.ok) ++states[static_cast<std::size_t>(c)].failed;
      const auto think =
          static_cast<sim::Time>(rng.exponential(static_cast<double>(params.think_time)));
      cluster.sim().schedule_after(think, [&issue, c] { issue(c); });
    });
  };
  for (int c = 0; c < params.clients; ++c) issue(c);

  auto work_left = [&] {
    if (outstanding > 0) return true;
    for (const auto& s : states) {
      if (s.remaining > 0) return true;
    }
    return false;
  };
  const sim::Time t0 = cluster.sim().now();
  int guard = 0;
  while (work_left() && ++guard < 2'000'000) {
    cluster.sim().run_until(cluster.sim().now() + 10 * sim::kMsec);
  }
  const sim::Time busy_span = cluster.sim().now() - t0;
  cluster.settle(3 * sim::kSec);  // propagation / reconciliation drain
  auto stats = collect_run_stats(cluster, kind, busy_span);
  static int trace_seq = 0;
  std::string tag = stats.technique;
  for (auto& ch : tag) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '-';
  }
  maybe_write_trace(cluster, tag + "-" + std::to_string(++trace_seq));
  return stats;
}

namespace {

/// Compact technique-knob summary for provenance (only knobs that shape the
/// technique's behavior; harness-level settings ride in their own fields).
std::string technique_config_string(const ClusterConfig& cfg) {
  std::ostringstream os;
  switch (cfg.kind) {
    case TechniqueKind::Active:
      os << "abcast_impl=" << (cfg.active_abcast_impl == 0 ? "sequencer" : "consensus");
      break;
    case TechniqueKind::EagerLocking:
      os << "max_attempts=" << cfg.locking_max_attempts
         << " wait_timeout_us=" << db::kLockWaitTimeout
         << " rowa=" << (cfg.locking_read_one_write_all ? 1 : 0);
      break;
    case TechniqueKind::EagerAbcast:
      os << "optimistic=" << (cfg.eager_abcast_optimistic ? 1 : 0);
      break;
    case TechniqueKind::LazyPrimary:
      os << "propagation_delay_us=" << cfg.lazy_propagation_delay;
      break;
    case TechniqueKind::LazyEverywhere:
      os << "propagation_delay_us=" << cfg.lazy_propagation_delay
         << " reconciliation=" << (cfg.lazy_reconciliation == 0 ? "abcast" : "lww");
      break;
    case TechniqueKind::Certification:
      os << "max_attempts=" << cfg.certification_max_attempts
         << " local_reads=" << (cfg.certification_local_reads ? 1 : 0);
      break;
    default:
      break;
  }
  if (cfg.batch_max_ops > 1) {
    if (!os.str().empty()) os << " ";
    os << "batch_max_ops=" << cfg.batch_max_ops << " batch_flush_us=" << cfg.batch_flush_us;
  }
  return os.str();
}

}  // namespace

RunStats collect_run_stats(Cluster& cluster, TechniqueKind kind, sim::Time busy_span) {
  configure_logging_from_env();
  RunStats stats;
  stats.technique = std::string(core::technique_name(kind));
  stats.replicas = cluster.replica_count();
  stats.seed = cluster.config().seed;
  stats.technique_config = technique_config_string(cluster.config());
  util::Histogram latency;
  for (const auto& op : cluster.history().ops()) {
    ++stats.ops_attempted;
    if (op.response == 0) continue;
    if (op.ok) {
      ++stats.ops_ok;
      latency.add(static_cast<double>(op.response - op.invoke));
    } else {
      ++stats.ops_failed;
    }
  }
  if (!latency.empty()) {
    stats.mean_latency_us = latency.mean();
    stats.p50_latency_us = latency.percentile(50);
    stats.p95_latency_us = latency.percentile(95);
    stats.p99_latency_us = latency.percentile(99);
  }
  if (busy_span > 0) {
    stats.throughput_ops_per_s =
        static_cast<double>(stats.ops_ok) / (static_cast<double>(busy_span) / sim::kSec);
  }
  if (stats.ops_ok > 0) {
    // Protocol traffic only: failure-detector heartbeats scale with run
    // duration, not with work done, and would drown the comparison.
    stats.msgs_per_op =
        static_cast<double>(cluster.sim().net().messages_excluding("gcs.Heartbeat")) /
        stats.ops_ok;
    stats.bytes_per_op =
        static_cast<double>(cluster.sim().net().bytes_excluding("gcs.Heartbeat")) /
        stats.ops_ok;
  }
  for (int c = 0; c < cluster.client_count(); ++c) {
    stats.client_timeouts += cluster.client(c).timeouts();
  }
  stats.lazy_undone = cluster.sim().metrics().counter_value("lazy.undone");
  stats.certification_aborts = cluster.sim().metrics().counter_value("certification.aborts");
  if (const auto* h = cluster.sim().metrics().find_histogram("lazy.staleness_us");
      h != nullptr && !h->data().empty()) {
    stats.mean_staleness_ms = h->data().mean() / 1000.0;
  }
  stats.converged = cluster.converged();
  return stats;
}

bool write_bench_json(const std::string& bench, const std::vector<BenchRow>& rows) {
  configure_logging_from_env();
  const auto path = bench_output_dir() + "/BENCH_" + bench + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    util::log_error("write_bench_json: cannot open ", path);
    return false;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("bench", bench);
  w.field("schema_version", 2);
  // Run provenance: makes bench trajectories comparable across commits.
  w.key("provenance").begin_object();
#ifdef REPLI_GIT_SHA
  w.field("git_sha", REPLI_GIT_SHA);
#else
  w.field("git_sha", "unknown");
#endif
  w.end_object();
  w.key("rows").begin_array();
  for (const auto& row : rows) {
    const auto& s = row.stats;
    w.begin_object();
    w.field("technique", s.technique);
    w.field("replicas", s.replicas);
    w.field("seed", static_cast<std::int64_t>(s.seed));
    if (!s.technique_config.empty()) w.field("technique_config", s.technique_config);
    w.field("ops_attempted", s.ops_attempted);
    w.field("ops_ok", s.ops_ok);
    w.field("ops_failed", s.ops_failed);
    w.field("throughput_ops_per_s", s.throughput_ops_per_s);
    w.key("latency_us").begin_object();
    w.field("mean", s.mean_latency_us);
    w.field("p50", s.p50_latency_us);
    w.field("p95", s.p95_latency_us);
    w.field("p99", s.p99_latency_us);
    w.end_object();
    w.field("msgs_per_op", s.msgs_per_op);
    w.field("bytes_per_op", s.bytes_per_op);
    w.field("client_timeouts", s.client_timeouts);
    w.field("lazy_undone", s.lazy_undone);
    w.field("certification_aborts", s.certification_aborts);
    w.field("mean_staleness_ms", s.mean_staleness_ms);
    w.field("converged", s.converged);
    for (const auto& [key, value] : row.extra) w.field(key, value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  out.flush();
  if (!out) {
    util::log_error("write_bench_json: write failed for ", path);
    return false;
  }
  std::cout << "\n  wrote " << path << "\n";
  return true;
}

bool write_bench_json(const std::string& bench, const std::vector<RunStats>& rows) {
  std::vector<BenchRow> wrapped;
  wrapped.reserve(rows.size());
  for (const auto& s : rows) wrapped.push_back(BenchRow{s, {}});
  return write_bench_json(bench, wrapped);
}

namespace {

void write_provenance(obs::JsonWriter& w) {
  w.key("provenance").begin_object();
#ifdef REPLI_GIT_SHA
  w.field("git_sha", REPLI_GIT_SHA);
#else
  w.field("git_sha", "unknown");
#endif
  w.end_object();
}

}  // namespace

bool write_micro_json(const std::string& bench, const std::vector<MicroRow>& rows) {
  configure_logging_from_env();
  const auto path = bench_output_dir() + "/BENCH_" + bench + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    util::log_error("write_micro_json: cannot open ", path);
    return false;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("bench", bench);
  w.field("schema_version", 2);
  w.field("micro", true);
  write_provenance(w);
  w.key("rows").begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.field("op", row.op);
    w.field("ops", static_cast<std::int64_t>(row.ops));
    w.field("ns_per_op", row.ns_per_op);
    w.field("allocs_per_op", row.allocs_per_op);
    w.field("alloc_bytes_per_op", row.alloc_bytes_per_op);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  out.flush();
  if (!out) {
    util::log_error("write_micro_json: write failed for ", path);
    return false;
  }
  std::cout << "\n  wrote " << path << "\n";
  return true;
}

bool write_prof_json(const std::string& bench, std::uint64_t total_ops) {
  configure_logging_from_env();
  const auto path = bench_output_dir() + "/PROF_" + bench + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    util::log_error("write_prof_json: cannot open ", path);
    return false;
  }
  const auto& profiler = obs::Profiler::global();
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("prof", bench);
  w.field("schema_version", 1);
  write_provenance(w);
  w.field("enabled", profiler.enabled());
  w.field("ops", static_cast<std::int64_t>(total_ops));
  w.key("centers").begin_array();
  for (std::size_t i = 0; i < obs::kCostCenterCount; ++i) {
    const auto center = static_cast<obs::CostCenter>(i);
    const obs::CostBucket& b = profiler.bucket(center);
    w.begin_object();
    w.field("center", std::string(obs::cost_center_name(center)));
    w.field("calls", static_cast<std::int64_t>(b.calls));
    w.field("self_ns", static_cast<std::int64_t>(b.self_ns));
    w.field("total_ns", static_cast<std::int64_t>(b.total_ns));
    w.field("allocs", static_cast<std::int64_t>(b.self_allocs));
    w.field("alloc_bytes", static_cast<std::int64_t>(b.self_alloc_bytes));
    if (total_ops > 0) {
      const auto ops = static_cast<double>(total_ops);
      w.field("calls_per_op", static_cast<double>(b.calls) / ops);
      w.field("self_ns_per_op", static_cast<double>(b.self_ns) / ops);
      w.field("allocs_per_op", static_cast<double>(b.self_allocs) / ops);
      w.field("alloc_bytes_per_op", static_cast<double>(b.self_alloc_bytes) / ops);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  out.flush();
  if (!out) {
    util::log_error("write_prof_json: write failed for ", path);
    return false;
  }
  std::cout << "  wrote " << path << "\n";
  return true;
}

void maybe_write_trace(Cluster& cluster, const std::string& name) {
  configure_logging_from_env();
  const char* env = std::getenv("REPLI_TRACE");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return;
  // A run shorter than monitor_interval never ticked the monitor; flush one
  // sample so STATS is never empty.
  cluster.final_monitor_sample();
  const std::string dir = (std::string(env) == "1") ? bench_output_dir() : env;
  const auto path = dir + "/TRACE_" + name + ".json";
  if (obs::write_chrome_trace_file(cluster.sim().tracer(), path)) {
    std::cout << "  wrote " << path << " (load in https://ui.perfetto.dev)\n";
  }
  // The matching NDJSON metrics dump: replikit-report's health tables come
  // from these monitor.* lines.
  const auto stats_path = dir + "/STATS_" + name + ".ndjson";
  if (obs::write_stats_ndjson_file(cluster.sim().metrics(), stats_path)) {
    std::cout << "  wrote " << stats_path << "\n";
  }
  // Folded flamegraph stacks from the same span tree (simulated self-time):
  // feed to flamegraph.pl / speedscope, or `replikit-report flame`.
  const auto folded_path = dir + "/PROF_" + name + ".folded";
  if (obs::write_folded_file(cluster.sim().tracer(), folded_path)) {
    std::cout << "  wrote " << folded_path << "\n";
  }
  // Critical-path waterfall: which segment every transaction's latency
  // went to (`replikit-report waterfall` renders these).
  const auto crit_path = dir + "/CRIT_" + name + ".json";
  if (obs::write_crit_json_file(cluster.sim().tracer(), name, crit_path)) {
    std::cout << "  wrote " << crit_path << "\n";
  }
}

ProbeResult probe_single_update(Cluster& cluster) {
  configure_logging_from_env();
  const auto t0 = cluster.sim().now();
  const auto reply = cluster.run_op(0, core::op_put("item-x", "update"), 60 * sim::kSec);
  ProbeResult probe;
  const auto requests = sim::requests(cluster.sim().tracer());
  if (requests.empty()) return probe;
  probe.request_id = requests.front();
  cluster.settle(2 * sim::kSec);  // let lazy AC land in the trace
  probe.measured_pattern =
      sim::pattern_to_string(sim::pattern(cluster.sim().tracer(), probe.request_id));
  if (!cluster.history().ops().empty()) {
    const auto& rec = cluster.history().ops().front();
    probe.latency_us = static_cast<double>(rec.response - rec.invoke);
  }
  probe.messages = cluster.sim().net().messages_excluding("gcs.Heartbeat");
  probe.bytes = cluster.sim().net().bytes_excluding("gcs.Heartbeat");
  (void)reply;
  (void)t0;
  return probe;
}

void print_timeline(Cluster& cluster, const std::string& request_id, std::ostream& os) {
  sim::write_timeline(
      cluster.sim().tracer(), request_id,
      [&cluster](sim::NodeId node) { return cluster.sim().process(node).name(); }, os);
}

void print_message_mix(Cluster& cluster, std::ostream& os) {
  os << "  protocol messages on the wire ("
     << cluster.sim().net().messages_excluding("gcs.Heartbeat") << " total, "
     << cluster.sim().net().bytes_excluding("gcs.Heartbeat")
     << " bytes; failure-detector heartbeats excluded):\n";
  for (const auto& [type, count] : cluster.sim().net().per_type_count()) {
    if (type == "gcs.Heartbeat") continue;
    os << "    " << std::left << std::setw(24) << type << " " << count << "\n";
  }
}

void print_rule(std::size_t width, std::ostream& os) {
  os << std::string(width, '-') << "\n";
}

void print_header(const std::string& title, std::ostream& os) {
  configure_logging_from_env();
  os << "\n";
  print_rule(86, os);
  os << title << "\n";
  print_rule(86, os);
}

std::string verdict(bool ok) { return ok ? "MATCH" : "** MISMATCH **"; }

}  // namespace repli::bench

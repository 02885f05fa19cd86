// replikit benchmark program: runs one workload for a wall-time budget and
// prints its metrics, the last line being one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   replikit_perfbench --workload abcast_stream --seed 1 --seconds 10 --trace 0
//
// Run structure: pass 0 is an untimed warm-up. The simulated metrics and
// peak RSS are read from it, RSS growth is sampled during it, and with
// --trace 1 it also reconstructs critical paths. Timed passes then repeat
// until --seconds have elapsed: untraced only, or alternating untraced and
// profiled with --trace 1. Set-up is timed on its own a few times before
// every pass. Every pass, the warm-up included, replays the same work, so
// each must reproduce the first timed pass's simulated metrics and schedule
// digest exactly. Host times, set-up included, are per-segment minima over
// their timings (see fastest()). The run fails (exit 1, "correct": false) on a
// checker violation, a determinism mismatch, an unattributed wire type or
// a non-finite metric.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/metrics.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

namespace core = repli::core;
namespace obs = repli::obs;

using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerPass = 3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double percentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  repli::util::Histogram h;
  for (const double v : values) h.add(v);
  return h.percentile(q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Geometric mean, so a regression in any one technique moves the result
/// by its own factor. 0 when any input is not positive.
double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::int64_t counter(const SimTotals& t, const std::string& name) {
  const auto it = t.counters.find(name);
  return it == t.counters.end() ? 0 : it->second;
}

HistAgg hist(const SimTotals& t, const std::string& name) {
  const auto it = t.histograms.find(name);
  return it == t.histograms.end() ? HistAgg{} : it->second;
}

/// End-to-end metrics on the simulated clock. In a multi-technique
/// workload each is the geometric mean of the per-technique values.
Metrics simulated_end_to_end(const SimTotals& t) {
  std::vector<double> p50, p99, ops_per_s, msgs, bytes, executions;
  for (const auto& [name, tech] : t.techniques) {
    const auto ok = static_cast<double>(tech.ok);
    p50.push_back(percentile(tech.latency_us, 50));
    p99.push_back(percentile(tech.latency_us, 99));
    ops_per_s.push_back(ratio(ok, static_cast<double>(tech.busy_us) / 1e6));
    msgs.push_back(ratio(static_cast<double>(tech.msgs), ok));
    bytes.push_back(ratio(static_cast<double>(tech.bytes), ok));
    executions.push_back(ratio(ok + static_cast<double>(tech.wasted), ok));
  }
  return {
      {"latency_p50_us", geomean(p50), "us"},
      {"latency_p99_us", geomean(p99), "us"},
      {"sim_ops_per_s", geomean(ops_per_s), "ops/s"},
      {"msgs_per_op", geomean(msgs), "count"},
      {"bytes_per_op", geomean(bytes), "B"},
      {"executions_per_commit", geomean(executions), "count"},
  };
}

/// Per-layer metrics on the simulated clock (exact per seed).
Metrics simulated_layers(const SimTotals& t) {
  const auto ok = static_cast<double>(t.ok_ops());
  const auto per_op = [ok](double v) { return ratio(v, ok); };
  Metrics m;
  // sim (event core + network)
  m.push_back({"sim.events_per_op", per_op(static_cast<double>(t.events)), "count"});
  std::int64_t other_msgs = 0;
  std::int64_t other_bytes = 0;
  for (const auto& [family, n] : t.family_msgs) {
    if (family != "client" && family != "link_data" && family != "link_ack") other_msgs += n;
  }
  for (const auto& [family, n] : t.family_bytes) {
    if (family != "client" && family != "link_data" && family != "link_ack") other_bytes += n;
  }
  const auto family = [&t](const std::map<std::string, std::int64_t>& by, const char* f) {
    const auto it = by.find(f);
    return it == by.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* f : {"client", "link_data", "link_ack"}) {
    m.push_back({std::string("net.msgs_per_op.") + f, per_op(family(t.family_msgs, f)), "count"});
  }
  m.push_back({"net.msgs_per_op.other", per_op(static_cast<double>(other_msgs)), "count"});
  for (const char* f : {"client", "link_data", "link_ack"}) {
    m.push_back({std::string("net.bytes_per_op.") + f, per_op(family(t.family_bytes, f)), "B"});
  }
  m.push_back({"net.bytes_per_op.other", per_op(static_cast<double>(other_bytes)), "B"});
  m.push_back({"net.heartbeats_per_sim_s",
               ratio(static_cast<double>(t.heartbeats), static_cast<double>(t.sim_us) / 1e6),
               "1/s"});
  m.push_back({"queue.net_inflight.p99", hist(t, "queue.net_inflight").p99(), "count"});
  // gcs
  const auto order = hist(t, "gcs.abcast.order_latency_us");
  m.push_back({"gcs.abcast.order_latency_us.p50", order.p50(), "us"});
  m.push_back({"gcs.abcast.order_latency_us.p99", order.p99(), "us"});
  m.push_back({"gcs.abcast.delivered_per_op",
               per_op(static_cast<double>(counter(t, "gcs.abcast.delivered"))), "count"});
  m.push_back({"gcs.link.pack_occupancy.mean", hist(t, "gcs.link.pack_occupancy").mean(),
               "count"});
  m.push_back({"gcs.abcast.batch_occupancy.mean", hist(t, "gcs.abcast.batch_occupancy").mean(),
               "count"});
  m.push_back({"gcs.consensus.rounds_per_decision",
               ratio(static_cast<double>(counter(t, "gcs.consensus.rounds")),
                     static_cast<double>(counter(t, "gcs.consensus.decided"))),
               "count"});
  m.push_back({"gcs.fd.suspicions_per_run",
               ratio(static_cast<double>(counter(t, "gcs.fd.suspicions")), t.runs), "count"});
  m.push_back({"monitor.failover_us.p50", hist(t, "monitor.failover_us").p50(), "us"});
  // db
  const auto wait = hist(t, "db.lock.wait_us");
  m.push_back({"db.lock.wait_us.p50", wait.p50(), "us"});
  m.push_back({"db.lock.wait_us.p99", wait.p99(), "us"});
  m.push_back({"queue.lock_waiters.p99", hist(t, "queue.lock_waiters").p99(), "count"});
  m.push_back({"db.lock.aborts_per_op",
               per_op(static_cast<double>(counter(t, "db.lock.deadlocks") +
                                          counter(t, "db.lock.wait_die_aborts"))),
               "count"});
  m.push_back({"db.wal.appends_per_op", per_op(static_cast<double>(counter(t, "db.wal.appends"))),
               "count"});
  m.push_back({"db.exec.op_us.mean", hist(t, "db.exec.op_us").mean(), "us"});
  // core
  for (const auto& info : core::all_techniques()) {
    const std::string prefix = "core." + std::string(info.name) + ".";
    const auto it = t.techniques.find(std::string(info.name));
    static const TechniqueTotals kAbsent;
    const auto& tech = it != t.techniques.end() ? it->second : kAbsent;
    m.push_back({prefix + "latency_p50_us", percentile(tech.latency_us, 50), "us"});
    m.push_back({prefix + "latency_p99_us", percentile(tech.latency_us, 99), "us"});
    m.push_back({prefix + "msgs_per_op",
                 ratio(static_cast<double>(tech.msgs), static_cast<double>(tech.ok)), "count"});
  }
  std::int64_t wasted = 0;
  std::int64_t failed = 0;
  for (const auto& [name, tech] : t.techniques) {
    wasted += tech.wasted;
    failed += tech.failed;
  }
  m.push_back({"core.group_commit.occupancy.mean", hist(t, "core.group_commit.occupancy").mean(),
               "count"});
  m.push_back({"core.useful_ratio", ratio(ok, ok + static_cast<double>(wasted)), "ratio"});
  m.push_back({"core.wasted_work_ratio", per_op(static_cast<double>(wasted)), "ratio"});
  m.push_back({"core.ops_failed_ratio",
               ratio(static_cast<double>(failed), static_cast<double>(t.attempted_ops())),
               "ratio"});
  m.push_back({"client.retries_per_op", per_op(static_cast<double>(counter(t, "client.retries"))),
               "count"});
  // check
  m.push_back({"check.failures", static_cast<double>(t.check_failures), "count"});
  // explore
  m.push_back({"explore.events_per_trial", mean(t.trial_events), "count"});
  m.push_back({"explore.faults_per_trial", mean(t.trial_faults), "count"});
  // obs
  m.push_back({"obs.spans_per_op", per_op(static_cast<double>(t.spans)), "count"});
  m.push_back({"obs.flows_per_op", per_op(static_cast<double>(t.flows)), "count"});
  m.push_back({"obs.msglog_per_op", per_op(static_cast<double>(t.msglog)), "count"});
  return m;
}

/// Critical-path waterfall shares (attribution pass).
Metrics critpath_layers(const SimTotals& t) {
  Metrics m;
  for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k) {
    const auto kind = static_cast<obs::SegmentKind>(k);
    m.push_back({"crit." + std::string(obs::segment_kind_name(kind)) + ".share",
                 ratio(t.crit_us[k], t.crit_total_us), "ratio"});
  }
  m.push_back({"crit.coverage", ratio(t.crit_attributed_us, t.crit_total_us), "ratio"});
  return m;
}

/// Lowers each segment time in `best` to the one in `times`.
void keep_fastest(std::vector<double>& best, const std::vector<double>& times) {
  if (best.empty()) {
    best = times;
    return;
  }
  if (times.size() != best.size()) throw std::runtime_error("timings of different segments");
  for (std::size_t i = 0; i < times.size(); ++i) best[i] = std::min(best[i], times[i]);
}

/// The fastest time of every segment over `passes`. Passes replay identical
/// work (the determinism check proves it), so a segment's spread across
/// passes is host noise, which only ever adds time: the per-segment
/// minimum is the least-disturbed measure of what the work costs.
std::vector<double> fastest(const std::vector<Pass>& passes,
                            std::vector<double> HostTotals::*series) {
  std::vector<double> best;
  for (const auto& p : passes) keep_fastest(best, p.host.*series);
  return best;
}

double total(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return sum;
}

/// Committed client ops per second of the client loop (explore_sweep:
/// of whole trials, checks included).
double host_ops_per_s(const std::vector<Pass>& passes) {
  return ratio(static_cast<double>(passes.front().sim.ok_ops()),
               total(fastest(passes, &HostTotals::loop_s)));
}

/// Runs (clusters or trials) per second, each from construction through
/// its checks.
double trials_per_s(const std::vector<Pass>& passes) {
  return ratio(passes.front().sim.runs, total(fastest(passes, &HostTotals::loop_s)) +
                                            total(fastest(passes, &HostTotals::check_s)) +
                                            total(fastest(passes, &HostTotals::other_s)));
}

/// Growth of peak RSS per completed op between the first quarter of the
/// warm-up pass and its end: what a run retains per op.
double rss_kb_per_op(const HostTotals& h) {
  if (h.rss_checkpoints.size() < 2) return 0;
  const auto& a = h.rss_checkpoints[h.rss_checkpoints.size() / 4];
  const auto& b = h.rss_checkpoints.back();
  return ratio(static_cast<double>(b.second - a.second), static_cast<double>(b.first - a.first));
}

Metrics host_layers(const std::vector<Pass>& plain, const std::vector<Pass>& traced,
                    const Pass& warm, Workload w) {
  const Pass& first = plain.front();
  const auto ops = static_cast<double>(first.sim.ok_ops());
  // Profiler buckets cover a whole pass; the least-disturbed pass wins.
  const auto prof = [&traced, ops](obs::CostCenter c, bool allocs) {
    auto best = std::numeric_limits<double>::infinity();
    for (const auto& p : traced) {
      const auto& b = p.host.prof[static_cast<std::size_t>(c)];
      best = std::min(best, static_cast<double>(allocs ? b.self_allocs : b.self_ns));
    }
    return ratio(best, ops);
  };
  const double loop = total(fastest(plain, &HostTotals::loop_s));
  const double check = total(fastest(plain, &HostTotals::check_s));
  std::vector<double> trial_ms;
  if (w == Workload::ExploreSweep) {
    for (const double s : fastest(plain, &HostTotals::loop_s)) trial_ms.push_back(s * 1e3);
  }
  return {
      {"sim.wall_ns_per_event", ratio(loop * 1e9, static_cast<double>(first.host.loop_events)),
       "ns"},
      {"prof.sim.dispatch.self_ns_per_op", prof(obs::CostCenter::SimDispatch, false), "ns"},
      {"prof.net.delivery.self_ns_per_op", prof(obs::CostCenter::NetDelivery, false), "ns"},
      {"prof.wire.encode.self_ns_per_op", prof(obs::CostCenter::WireEncode, false), "ns"},
      {"prof.wire.decode.self_ns_per_op", prof(obs::CostCenter::WireDecode, false), "ns"},
      {"prof.wire.encode.allocs_per_op", prof(obs::CostCenter::WireEncode, true), "count"},
      {"prof.wire.decode.allocs_per_op", prof(obs::CostCenter::WireDecode, true), "count"},
      {"prof.gcs.link.self_ns_per_op", prof(obs::CostCenter::GcsLink, false), "ns"},
      {"prof.gcs.abcast.self_ns_per_op", prof(obs::CostCenter::GcsAbcast, false), "ns"},
      {"prof.db.lock.self_ns_per_op", prof(obs::CostCenter::LockMgr, false), "ns"},
      {"prof.core.technique.self_ns_per_op", prof(obs::CostCenter::Technique, false), "ns"},
      {"prof.check.self_ns_per_op", prof(obs::CostCenter::Checker, false), "ns"},
      // explore_sweep checks inside run_trial, out of reach of an outside
      // timer (0 here): its check cost is prof.check.self_ns_per_op.
      {"check.ms_per_run", ratio(check * 1e3, first.sim.runs), "ms"},
      {"check.ns_per_op", ratio(check * 1e9, ops), "ns"},
      {"explore.trial_ms.p50", percentile(trial_ms, 50), "ms"},
      {"explore.trial_ms.p99", percentile(trial_ms, 99), "ms"},
      {"obs.rss_kb_per_op", rss_kb_per_op(warm.host), "KB"},
      {"trace.overhead_ratio", ratio(host_ops_per_s(plain), host_ops_per_s(traced)), "ratio"},
  };
}

/// Moves this thread to a different allowed CPU for every timed pass and
/// restores the original affinity on destruction. On a shared host the
/// slowdowns are per CPU and come and go; rotating lets each segment's
/// fastest time be taken on whichever CPU was quiet.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

struct Args {
  Workload workload = Workload::AbcastStream;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::full();
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "replikit_perfbench: " << error << "\n"
            << "usage: replikit_perfbench --workload abcast_stream|txn_contention|explore_sweep"
               " --seed N --seconds S --trace 0|1 [--size full|tiny]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = workload_from_name(value);
        if (!w) usage("unknown workload '" + value + "'");
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        args.scale = value == "tiny" ? Scale::tiny() : Scale::full();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

/// The benchmark's stated "little work" predictions, checked on the
/// traced run. They describe the program, not its correctness: a failed
/// prediction is reported, and the self-test treats it as an error.
std::vector<std::pair<std::string, bool>> predictions(Workload w, const SimTotals& t) {
  std::vector<std::pair<std::string, bool>> out;
  if (w == Workload::AbcastStream) {
    out.emplace_back("abcast_stream waits for no lock",
                     hist(t, "db.lock.wait_us").count == 0 &&
                         t.crit_us[static_cast<std::size_t>(obs::SegmentKind::LockWait)] == 0);
  }
  if (w == Workload::TxnContention) {
    bool only_certification = true;
    for (const auto& [name, tech] : t.techniques) {
      const bool certification =
          name == core::technique_name(core::TechniqueKind::Certification);
      if ((tech.abcast_delivered > 0) != certification) only_certification = false;
    }
    out.emplace_back("txn_contention delivers ABCAST for certification-based only",
                     only_certification);
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args) {
  // Set-up is timed before every pass, so its fastest segments come from
  // timings spread over the whole run, as the passes' do.
  const Runner runner(args.workload, args.seed, args.scale);
  std::vector<double> setup_best;
  int setups = 0;
  const auto time_setups = [&setup_best, &setups, &runner] {
    for (int i = 0; i < kSetupsPerPass; ++i, ++setups) {
      keep_fastest(setup_best, runner.time_setup());
    }
  };
  time_setups();

  PassOptions warm_options;
  warm_options.sample_rss = true;
  warm_options.critpath = args.trace;
  const Pass warm = runner.run(warm_options);
  // Timed passes only replay the warm-up's work; the RSS they add is the
  // allocator's fragmentation from repeating it, which grows with the
  // number of passes and so with host speed.
  const long warm_rss_kb = peak_rss_kb();

  std::vector<Pass> plain;
  std::vector<Pass> traced;
  PassOptions profiled;
  profiled.profile = true;
  const auto t0 = Clock::now();
  const auto elapsed = [t0] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  CpuRotation cpus;
  do {
    cpus.next();
    time_setups();
    plain.push_back(runner.run({}));
    if (args.trace) {
      cpus.next();
      traced.push_back(runner.run(profiled));
    }
  } while (elapsed() < args.seconds || plain.size() < 2);

  // Correctness: checkers, wire attribution, determinism.
  bool correct = true;
  const auto fail = [&correct](const std::string& why) {
    std::cerr << "replikit_perfbench: FAIL: " << why << "\n";
    correct = false;
  };
  const auto judge = [&fail](const SimTotals& t) {
    if (t.check_failures > 0) {
      fail(std::to_string(t.check_failures) + " run(s) failed their checks; first: " +
           t.first_violation);
    }
    for (const auto& type : t.unmapped_types) fail("wire type '" + type + "' maps to no family");
  };
  // Every other pass replays this one.
  judge(warm.sim);
  const auto fingerprint = [](const SimTotals& t) {
    Metrics m = simulated_end_to_end(t);
    const Metrics layers = simulated_layers(t);
    m.insert(m.end(), layers.begin(), layers.end());
    return m;
  };
  const Pass& first = plain.front();
  const auto reference = fingerprint(first.sim);
  const auto same = [&](const Pass& p, const char* kind) {
    const auto got = fingerprint(p.sim);
    if (p.sim.digest != first.sim.digest) {
      fail(std::string(kind) + " pass schedule digest differs from the first timed pass");
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].value != reference[i].value) {
        fail(std::string(kind) + " pass differs on " + got[i].name + ": " +
             number(got[i].value) + " vs " + number(reference[i].value));
        return;
      }
    }
  };
  same(warm, "warm-up");
  for (const auto& p : plain) same(p, "untraced");
  for (const auto& p : traced) same(p, "profiled");

  Metrics out;
  if (!args.trace) {
    out.push_back({"setup_s", total(setup_best), "s"});
    out.push_back({"host_ops_per_s", host_ops_per_s(plain), "ops/s"});
    out.push_back({"peak_rss_mb", static_cast<double>(warm_rss_kb) / 1024.0, "MB"});
    out.push_back({"trials_per_s", trials_per_s(plain), "trials/s"});
    const Metrics sim_e2e = simulated_end_to_end(warm.sim);
    out.insert(out.end(), sim_e2e.begin(), sim_e2e.end());
  } else {
    out = simulated_layers(warm.sim);
    const Metrics crit = critpath_layers(warm.sim);
    const Metrics host = host_layers(plain, traced, warm, args.workload);
    out.insert(out.end(), crit.begin(), crit.end());
    out.insert(out.end(), host.begin(), host.end());
  }
  for (const auto& m : out) {
    if (!std::isfinite(m.value)) fail("metric " + m.name + " is not finite");
  }

  // The unit of work behind attempted/failed: client ops for the cluster
  // workloads, trials for explore_sweep (client ops failing under injected
  // faults are expected there; a trial fails when a checker rejects it).
  const std::size_t passes = 1 + plain.size() + traced.size();
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto count = [&](const Pass& p) {
    if (args.workload == Workload::ExploreSweep) {
      attempted += p.sim.runs;
      failed += p.sim.check_failures;
    } else {
      attempted += p.sim.attempted_ops();
      failed += p.sim.attempted_ops() - p.sim.ok_ops();
    }
  };
  count(warm);
  for (const auto& p : plain) count(p);
  for (const auto& p : traced) count(p);
  if (attempted < 1) fail("no work attempted");

  std::cout << "workload=" << workload_name(args.workload) << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " passes=" << passes
            << " (1 warm-up, " << plain.size() << " untraced, " << traced.size()
            << " profiled) setups=" << setups << "\n";
  std::cout << "latency samples (committed ops):";
  for (const auto& [name, tech] : warm.sim.techniques) std::cout << " " << name << "=" << tech.ok;
  std::cout << "\n";
  Metrics shown = out;
  if (!args.trace) {
    // Figures that are 0 by design on some workload cannot be gated as a
    // share of their median; they are printed here and reported per layer.
    for (const auto& m : simulated_layers(warm.sim)) {
      if (m.name == "core.ops_failed_ratio" || m.name == "core.wasted_work_ratio" ||
          m.name == "check.failures") {
        shown.push_back(m);
      }
    }
  }
  for (const auto& m : shown) {
    std::printf("  %-44s %22s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  }
  if (args.trace) {
    for (const auto& [what, holds] : predictions(args.workload, warm.sim)) {
      std::printf("prediction: %s: %s\n", what.c_str(), holds ? "holds" : "FAILS");
    }
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + number(out[i].value) + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "replikit_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}

#include "explore/trial.hh"

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "check/batch.hh"
#include "util/assert.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace repli::explore {

namespace {

std::string lowercase(std::string_view s) {
  std::string out(s);
  for (auto& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace

TrialResult run_trial(const TrialConfig& config) {
  util::ensure(config.replicas >= 1, "run_trial: need at least one replica");
  util::ensure(config.clients >= 1, "run_trial: need at least one client");
  for (const auto& fault : config.plan.faults) {
    util::ensure(fault.replica >= 0 && fault.replica < config.replicas,
                 "run_trial: fault plan names a replica outside the cluster");
  }

  core::ClusterConfig cc;
  cc.kind = config.kind;
  cc.replicas = config.replicas;
  cc.clients = config.clients;
  cc.seed = config.workload_seed;
  cc.net.drop_probability = config.plan.loss / 1000.0;
  core::Cluster cluster(cc);
  auto& sim = cluster.sim();

  // Schedule perturbation must be armed before the first dispatch.
  if (config.plan.tie_break || config.plan.jitter > 0) {
    sim::PerturbConfig pc;
    pc.seed = config.schedule_seed;
    pc.tie_break = config.plan.tie_break;
    pc.max_extra_delay = config.plan.jitter;
    sim.enable_perturbation(pc);
  }

  // ---- Fault injection -------------------------------------------------
  struct FaultState {
    std::vector<Fault> pending;          // phase-triggered, not yet fired
    std::map<std::string, std::uint64_t> phase_counts;
    std::multiset<int> isolated;         // replicas currently cut off
    std::size_t injected = 0;
    std::size_t heals = 0;
    bool frozen = false;  // workload done: no further injections
  };
  auto fs = std::make_shared<FaultState>();

  const int replicas = config.replicas;
  const auto apply_partition = [&sim, fs, replicas] {
    if (fs->isolated.empty()) {
      sim.net().set_partition(nullptr);
      return;
    }
    // Copy the isolated set into the predicate: the predicate must not
    // share mutable state with later swaps.
    std::vector<int> cut(fs->isolated.begin(), fs->isolated.end());
    sim.net().set_partition([cut, replicas](sim::NodeId from, sim::NodeId to) {
      if (from >= static_cast<sim::NodeId>(replicas) ||
          to >= static_cast<sim::NodeId>(replicas)) {
        return false;  // client links stay up; only replica gossip is cut
      }
      const auto is_cut = [&cut](sim::NodeId n) {
        for (const int r : cut) {
          if (n == static_cast<sim::NodeId>(r)) return true;
        }
        return false;
      };
      return is_cut(from) || is_cut(to);
    });
  };

  // `inject` runs inside a scheduled event of its own (never from inside
  // the phase hook directly), so crashing / repartitioning is safe.
  const auto inject = [&cluster, &sim, fs, apply_partition](const Fault& fault) {
    if (fs->frozen) return;
    ++fs->injected;
    if (fault.kind == Fault::Kind::Crash) {
      cluster.crash_replica(fault.replica);
      return;
    }
    fs->isolated.insert(fault.replica);
    apply_partition();
    const int target = fault.replica;
    sim.schedule_after(fault.heal_after, [fs, apply_partition, target] {
      const auto it = fs->isolated.find(target);
      if (it == fs->isolated.end()) return;  // already healed wholesale
      fs->isolated.erase(it);
      ++fs->heals;
      apply_partition();
    });
  };

  for (const auto& fault : config.plan.faults) {
    if (fault.trigger.kind == Trigger::Kind::Time) {
      sim.schedule_after(fault.trigger.at, [inject, fault] { inject(fault); });
    } else {
      fs->pending.push_back(fault);
    }
  }
  if (!fs->pending.empty()) {
    sim.trace().set_phase_hook(
        [&sim, fs, inject](const std::string&, sim::NodeId, sim::Phase phase, sim::Time,
                           sim::Time) {
          if (fs->frozen || fs->pending.empty()) return;
          const auto abbrev = lowercase(sim::phase_abbrev(phase));
          const auto count = ++fs->phase_counts[abbrev];
          for (auto it = fs->pending.begin(); it != fs->pending.end();) {
            if (it->trigger.phase == abbrev && it->trigger.occurrence == count) {
              const Fault fault = *it;
              it = fs->pending.erase(it);
              // Defer to a fresh event: the hook runs mid-record.
              sim.schedule_after(0, [inject, fault] { inject(fault); });
            } else {
              ++it;
            }
          }
        });
  }

  // ---- Workload --------------------------------------------------------
  // Closed loop per client over a deliberately tiny keyspace: every client
  // issues get/put/add with unique put values (so duplicate execution is
  // observable, not masked). Submission happens in the previous op's
  // completion callback, so the workload adapts to whatever latency the
  // perturbed schedule produces.
  struct WorkloadState {
    std::vector<util::Rng> rng;
    std::vector<int> issued;
    int active = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
  };
  auto ws = std::make_shared<WorkloadState>();
  for (int c = 0; c < config.clients; ++c) {
    ws->rng.emplace_back(config.workload_seed * 0x9E3779B97F4A7C15ull +
                         static_cast<std::uint64_t>(c) + 1);
    ws->issued.push_back(0);
  }
  ws->active = config.clients;

  std::function<void(int)> submit_next = [&](int c) {
    auto& rng = ws->rng[static_cast<std::size_t>(c)];
    const int n = ws->issued[static_cast<std::size_t>(c)]++;
    const auto slot = rng.uniform(0, config.keys - 1);
    const auto dice = rng.uniform(0, 9);
    db::Operation op;
    // Counters live in their own keyspace: `add` needs numeric state (the
    // stored procedure rejects a key holding a put string).
    if (dice < 5) {
      op = core::op_get("k" + std::to_string(slot));
    } else if (dice < 8) {
      op = core::op_put("k" + std::to_string(slot),
                        "v" + std::to_string(c) + "-" + std::to_string(n));
    } else {
      op = core::op_add("c" + std::to_string(slot), 1);
    }
    cluster.submit_op(c, std::move(op), [&submit_next, ws, c, &config](
                                            const core::ClientReply& reply) {
      reply.ok ? ++ws->ok : ++ws->failed;
      if (ws->issued[static_cast<std::size_t>(c)] < config.ops_per_client) {
        submit_next(c);
      } else {
        --ws->active;
      }
    });
  };
  for (int c = 0; c < config.clients; ++c) submit_next(c);

  while (ws->active > 0 && sim.now() < config.budget) {
    sim.run_until(sim.now() + 10 * sim::kMsec);
  }

  // ---- Heal, settle, check ---------------------------------------------
  fs->frozen = true;  // late triggers must not fire into the settle window
  sim.trace().set_phase_hook(nullptr);
  if (!fs->isolated.empty()) {
    fs->heals += fs->isolated.size();
    fs->isolated.clear();
  }
  sim.net().set_partition(nullptr);
  cluster.settle(config.settle);

  auto& metrics = sim.metrics();
  metrics.incr("explore.faults_injected", static_cast<std::int64_t>(fs->injected));
  metrics.incr("explore.partition_heals", static_cast<std::int64_t>(fs->heals));
  metrics.incr("explore.ties_randomized",
               static_cast<std::int64_t>(sim.tie_decisions().size()));

  TrialResult result;
  result.schedule_digest = sim.schedule_digest();
  result.events = sim.events_dispatched();
  result.ops_ok = ws->ok;
  result.ops_failed = ws->failed;
  result.faults_injected = fs->injected;
  result.ties_randomized = sim.tie_decisions().size();

  auto opts = check::checks_for(config.kind);
  opts.taint_slow_ops = cc.client_retry_timeout;
  const auto verdict =
      check::run_checks(cluster.history(), cluster.storage_digests(), opts);
  result.tainted_keys = verdict.tainted_keys;
  result.keys_checked = verdict.linearizability.keys_checked;
  result.keys_skipped = verdict.linearizability.keys_skipped;
  if (!verdict.ok) {
    result.ok = false;
    result.failed_check = verdict.failed_check;
    result.violation = verdict.violation;
  }

  // The hook runs even when a standard check already failed, so tests and
  // diagnostics can observe the cluster; the standard verdict wins.
  if (config.extra_check) {
    const auto extra = config.extra_check(config, cluster);
    if (result.ok && !extra.empty()) {
      result.ok = false;
      result.failed_check = "extra";
      result.violation = extra;
    }
  }
  return result;
}

}  // namespace repli::explore

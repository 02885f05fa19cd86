#include "explore/explore.hh"

#include <algorithm>

#include "gcs/fd.hh"
#include "util/assert.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace repli::explore {

namespace {

/// splitmix64: decorrelates (master, trial, lane) into independent seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t master, int trial, int lane) {
  return mix(master ^ mix(static_cast<std::uint64_t>(trial) * 3 +
                          static_cast<std::uint64_t>(lane)));
}

Plan generate_plan(const ExploreConfig& config, int trial) {
  util::Rng rng(derive_seed(config.seed, trial, 2));
  Plan plan;
  plan.tie_break = config.allow_tie && rng.bernoulli(0.75);
  if (config.allow_jitter && rng.bernoulli(0.5)) {
    plan.jitter = static_cast<sim::Time>(rng.uniform(100, config.max_jitter));
  }

  // Generated partitions stay inside the accurate-failure-detector envelope:
  // every protocol here assumes the paper's crash-stop model, so a partition
  // that outlives the suspicion timeout looks like a crash to BOTH sides and
  // the fixed-sequencer / primary-based variants split-brain (two sequencers
  // assign conflicting gseqs; DESIGN.md documents the assumption). The
  // envelope is the suspicion timeout minus the worst-case silent window
  // around the partition: one heartbeat interval just missed at onset, one
  // sent after heal, its delivery latency, and any schedule jitter we add
  // ourselves. Longer partitions remain expressible in hand-written plans
  // (replay/shrink accept them) — the generator just doesn't emit them.
  const sim::Time jitter_cap = 800;  // usec; keeps the envelope positive
  const sim::Time delivery_slack = 1 * sim::kMsec;
  const sim::Time max_partition =
      gcs::kFdTimeout - 2 * gcs::kFdInterval - delivery_slack - jitter_cap;
  util::ensure(max_partition > 1 * sim::kMsec,
               "generate_plan: failure-detector timings leave no room for "
               "in-model partitions");

  // Crash-stop at most a minority: a crashed majority only measures the
  // client timeout path, not the protocol.
  int crashes_left = (config.replicas - 1) / 2;
  const int faults = static_cast<int>(rng.uniform(0, config.max_faults));
  const auto phases = core::technique_fault_phases(config.kind);
  for (int i = 0; i < faults; ++i) {
    const bool want_crash =
        config.allow_crash && crashes_left > 0 &&
        (!config.allow_partition || rng.bernoulli(0.5));
    if (!want_crash && !config.allow_partition) break;
    Fault fault;
    fault.kind = want_crash ? Fault::Kind::Crash : Fault::Kind::Partition;
    fault.replica = static_cast<int>(rng.uniform(0, config.replicas - 1));
    if (rng.bernoulli(0.5) || phases.empty()) {
      fault.trigger.kind = Trigger::Kind::Time;
      fault.trigger.at = static_cast<sim::Time>(rng.uniform(2000, 150000));  // 2..150 ms
    } else {
      fault.trigger.kind = Trigger::Kind::Phase;
      std::string abbrev{phases[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(phases.size()) - 1))]};
      for (auto& c : abbrev) c = static_cast<char>(c - 'A' + 'a');
      fault.trigger.phase = std::move(abbrev);
      fault.trigger.occurrence = static_cast<std::uint32_t>(rng.uniform(1, 15));
    }
    if (fault.kind == Fault::Kind::Crash) {
      --crashes_left;
    } else {
      fault.heal_after = static_cast<sim::Time>(rng.uniform(500, max_partition));
      plan.jitter = std::min(plan.jitter, jitter_cap);
    }
    plan.faults.push_back(std::move(fault));
  }
  return plan;
}

TrialConfig trial_config(const ExploreConfig& config, int trial) {
  TrialConfig tc;
  tc.kind = config.kind;
  tc.workload_seed = derive_seed(config.seed, trial, 0);
  tc.schedule_seed = derive_seed(config.seed, trial, 1);
  tc.plan = generate_plan(config, trial);
  tc.replicas = config.replicas;
  tc.clients = config.clients;
  tc.ops_per_client = config.ops_per_client;
  tc.keys = config.keys;
  tc.settle = config.settle;
  return tc;
}

ExploreResult explore(const ExploreConfig& config) {
  util::ensure(config.trials >= 1, "explore: need at least one trial");
  ExploreResult result;
  result.config = config;
  for (int t = 0; t < config.trials; ++t) {
    const auto tc = trial_config(config, t);
    TrialRow row;
    row.trial = t;
    row.workload_seed = tc.workload_seed;
    row.schedule_seed = tc.schedule_seed;
    row.plan = format_plan(tc.plan);
    row.result = run_trial(tc);
    result.events_total += row.result.events;
    result.faults_injected_total += row.result.faults_injected;
    if (!row.result.ok) {
      util::log_info("explore: ", core::technique_name(config.kind), " trial ", t,
                     " violated ", row.result.failed_check, " under plan '", row.plan,
                     "'");
      ViolationRecord rec;
      rec.trial = row;
      if (config.shrink_violations) {
        const auto shrunk = shrink(tc);
        rec.minimal_plan = format_plan(shrunk.minimal);
        rec.minimal_failed_check = shrunk.result.failed_check;
        rec.minimal_schedule_digest = shrunk.result.schedule_digest;
        rec.shrink_steps = shrunk.steps;
        rec.shrink_runs = shrunk.runs;
      } else {
        rec.minimal_plan = row.plan;
        rec.minimal_failed_check = row.result.failed_check;
        rec.minimal_schedule_digest = row.result.schedule_digest;
      }
      result.violations.push_back(std::move(rec));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

ShrinkResult shrink(const TrialConfig& failing) {
  ShrinkResult out;
  TrialConfig current = failing;

  TrialResult last = run_trial(current);
  ++out.runs;
  util::ensure(!last.ok, "shrink: the given trial does not fail to begin with");

  // Runs `candidate`; keeps it if it still fails.
  const auto accept_if_failing = [&](const TrialConfig& candidate) {
    ++out.runs;
    TrialResult result = run_trial(candidate);
    if (result.ok) return false;
    current = candidate;
    last = std::move(result);
    ++out.steps;
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    // Faults, one at a time (greedy ddmin with subset size 1).
    for (std::size_t i = 0; i < current.plan.faults.size();) {
      TrialConfig candidate = current;
      candidate.plan.faults.erase(candidate.plan.faults.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      if (accept_if_failing(candidate)) {
        progress = true;  // do not advance i: the next fault shifted down
      } else {
        ++i;
      }
    }
    if (current.plan.loss > 0) {
      TrialConfig candidate = current;
      candidate.plan.loss = 0;
      progress |= accept_if_failing(candidate);
    }
    if (current.plan.jitter > 0) {
      TrialConfig candidate = current;
      candidate.plan.jitter = 0;
      progress |= accept_if_failing(candidate);
    }
    if (current.plan.tie_break) {
      TrialConfig candidate = current;
      candidate.plan.tie_break = false;
      progress |= accept_if_failing(candidate);
    }
  }

  out.minimal = current.plan;
  out.result = last;
  return out;
}

}  // namespace repli::explore

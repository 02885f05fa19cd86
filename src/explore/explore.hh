// The exploration driver: N trials per technique, each with seeds and a
// fault plan derived deterministically from one master seed, plus the
// delta-debugging shrinker that reduces a failing trial to a minimal
// reproducer. ExploreResult is the in-memory form of the EXPLORE artifact
// (see explore/artifact.hh).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/trial.hh"

namespace repli::explore {

struct ExploreConfig {
  core::TechniqueKind kind = core::TechniqueKind::Active;
  std::uint64_t seed = 1;  // master seed: every trial derives from (seed, index)
  int trials = 100;

  // Per-trial shape (copied into each TrialConfig).
  int replicas = 3;
  int clients = 3;
  int ops_per_client = 25;
  int keys = 4;
  sim::Time settle = 5 * sim::kSec;

  // Plan-generation envelope.
  int max_faults = 2;
  bool allow_crash = true;
  bool allow_partition = true;
  bool allow_jitter = true;
  bool allow_tie = true;
  sim::Time max_jitter = 3000;  // us

  bool shrink_violations = true;
};

/// One line of the trial table: everything needed to replay the trial.
struct TrialRow {
  int trial = 0;
  std::uint64_t workload_seed = 0;
  std::uint64_t schedule_seed = 0;
  std::string plan;  // canonical format_plan form
  TrialResult result;
};

struct ShrinkResult {
  Plan minimal;
  TrialResult result;  // the minimal plan's (still failing) result
  int steps = 0;       // accepted reductions
  int runs = 0;        // trials executed while shrinking
};

struct ViolationRecord {
  TrialRow trial;        // the original failing trial
  std::string minimal_plan;
  std::string minimal_failed_check;
  std::uint64_t minimal_schedule_digest = 0;
  int shrink_steps = 0;
  int shrink_runs = 0;
};

struct ExploreResult {
  ExploreConfig config;
  std::vector<TrialRow> rows;
  std::vector<ViolationRecord> violations;
  std::uint64_t events_total = 0;
  std::uint64_t faults_injected_total = 0;
};

/// Deterministic per-trial derivation (exposed so `replay` can rebuild any
/// trial from the artifact header alone). `lane` 0 = workload seed,
/// 1 = schedule seed, 2 = plan stream.
std::uint64_t derive_seed(std::uint64_t master, int trial, int lane);

/// The plan trial `trial` runs under `config` (pure function).
Plan generate_plan(const ExploreConfig& config, int trial);

/// The full TrialConfig for one trial index.
TrialConfig trial_config(const ExploreConfig& config, int trial);

/// Runs the whole exploration; shrinks each violation when configured.
ExploreResult explore(const ExploreConfig& config);

/// Greedy delta debugging on a failing trial: drop faults one at a time,
/// then zero the loss, then the jitter, then disable tie randomization,
/// re-running after each candidate reduction and keeping it only if the
/// trial still fails; repeats to a fixed point. The returned plan is 1-minimal: removing any
/// single remaining element makes the violation vanish.
ShrinkResult shrink(const TrialConfig& failing);

}  // namespace repli::explore

#include "tools/explore/cli.hh"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "explore/artifact.hh"
#include "explore/explore.hh"
#include "util/log.hh"

namespace repli::tools {

namespace {

constexpr int kOk = 0;
constexpr int kIoError = 1;
constexpr int kUsage = 2;
constexpr int kViolation = 3;
constexpr int kCorrupt = 4;

void usage(std::ostream& os) {
  os << "usage:\n"
        "  replikit-explore run --technique <name|all> [--trials N] [--seed S]\n"
        "      [--replicas R] [--clients C] [--ops N] [--keys K] [--max-faults F]\n"
        "      [--max-jitter US] [--no-shrink] [--out-dir DIR]\n"
        "  replikit-explore replay --technique <name> --workload-seed S\n"
        "      --schedule-seed S --plan \"<plan>\" [--replicas R] [--clients C]\n"
        "      [--ops N] [--keys K]\n"
        "  replikit-explore replay --artifact EXPLORE_<t>.json\n"
        "      (--trial N | --violation N [--original])\n"
        "  replikit-explore shrink --technique <name> --workload-seed S\n"
        "      --schedule-seed S --plan \"<plan>\" [--replicas R] [--clients C]\n"
        "      [--ops N] [--keys K]\n"
        "\n"
        "Seeds accept decimal or 0x-hex. Plans use the fault-plan grammar\n"
        "(docs/EXPLORATION.md), e.g. \"tie; jitter=400; crash@sc2:r1\".\n";
}

/// argv -> {flag: value}; returns nullopt on an unknown or valueless flag.
std::optional<std::map<std::string, std::string>> parse_flags(
    int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "replikit-explore: unexpected argument '" << arg << "'\n";
      return std::nullopt;
    }
    if (arg == "--no-shrink" || arg == "--original") {
      flags[arg.substr(2)] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "replikit-explore: flag '" << arg << "' needs a value\n";
      return std::nullopt;
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.rfind("0x", 0) == 0) return explore::parse_hex_u64(s);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

int flag_int(const std::map<std::string, std::string>& flags, const std::string& name,
             int fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
}

void apply_shape_flags(const std::map<std::string, std::string>& flags,
                       explore::TrialConfig& tc) {
  tc.replicas = flag_int(flags, "replicas", tc.replicas);
  tc.clients = flag_int(flags, "clients", tc.clients);
  tc.ops_per_client = flag_int(flags, "ops", tc.ops_per_client);
  tc.keys = flag_int(flags, "keys", tc.keys);
}

void print_trial(std::ostream& os, const explore::TrialConfig& tc,
                 const explore::TrialResult& result) {
  os << "technique:       " << core::technique_name(tc.kind) << "\n"
     << "workload seed:   " << explore::hex_u64(tc.workload_seed) << "\n"
     << "schedule seed:   " << explore::hex_u64(tc.schedule_seed) << "\n"
     << "plan:            " << explore::format_plan(tc.plan) << "\n"
     << "events:          " << result.events << "\n"
     << "schedule digest: " << explore::hex_u64(result.schedule_digest) << "\n"
     << "ops ok/failed:   " << result.ops_ok << "/" << result.ops_failed << "\n"
     << "faults injected: " << result.faults_injected << "\n"
     << "verdict:         " << (result.ok ? "PASS" : "VIOLATION") << "\n";
  if (!result.ok) {
    os << "failed check:    " << result.failed_check << "\n"
       << "witness:         " << result.violation << "\n";
  }
}

/// Builds a TrialConfig from --technique/--workload-seed/--schedule-seed/
/// --plan flags; kUsage via the int* on any missing or malformed piece.
std::optional<explore::TrialConfig> trial_from_flags(
    const std::map<std::string, std::string>& flags, int* exit_code) {
  *exit_code = kUsage;
  const auto technique_it = flags.find("technique");
  if (technique_it == flags.end()) {
    std::cerr << "replikit-explore: --technique is required\n";
    return std::nullopt;
  }
  const auto kind = core::technique_from_name(technique_it->second);
  if (!kind.has_value()) {
    std::cerr << "replikit-explore: unknown technique '" << technique_it->second << "'\n";
    return std::nullopt;
  }
  explore::TrialConfig tc;
  tc.kind = *kind;
  for (const auto& [flag, member] :
       std::vector<std::pair<std::string, std::uint64_t explore::TrialConfig::*>>{
           {"workload-seed", &explore::TrialConfig::workload_seed},
           {"schedule-seed", &explore::TrialConfig::schedule_seed}}) {
    const auto it = flags.find(flag);
    if (it == flags.end()) {
      std::cerr << "replikit-explore: --" << flag << " is required\n";
      return std::nullopt;
    }
    const auto seed = parse_u64(it->second);
    if (!seed.has_value()) {
      std::cerr << "replikit-explore: bad seed '" << it->second << "'\n";
      return std::nullopt;
    }
    tc.*member = *seed;
  }
  const auto plan_it = flags.find("plan");
  if (plan_it == flags.end()) {
    std::cerr << "replikit-explore: --plan is required\n";
    return std::nullopt;
  }
  std::string error;
  const auto plan = explore::parse_plan(plan_it->second, &error);
  if (!plan.has_value()) {
    std::cerr << "replikit-explore: bad plan: " << error << "\n";
    return std::nullopt;
  }
  tc.plan = *plan;
  apply_shape_flags(flags, tc);
  return tc;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const auto technique_it = flags.find("technique");
  if (technique_it == flags.end()) {
    std::cerr << "replikit-explore: --technique is required (a name, or 'all')\n";
    return kUsage;
  }
  std::vector<core::TechniqueKind> kinds;
  if (technique_it->second == "all") {
    for (const auto& info : core::all_techniques()) kinds.push_back(info.kind);
  } else {
    const auto kind = core::technique_from_name(technique_it->second);
    if (!kind.has_value()) {
      std::cerr << "replikit-explore: unknown technique '" << technique_it->second
                << "'\n";
      return kUsage;
    }
    kinds.push_back(*kind);
  }
  if (const auto it = flags.find("out-dir"); it != flags.end()) {
    std::error_code ec;
    std::filesystem::create_directories(it->second, ec);
    if (ec) {
      std::cerr << "replikit-explore: cannot create out-dir '" << it->second
                << "': " << ec.message() << "\n";
      return kIoError;
    }
    setenv("REPLI_BENCH_DIR", it->second.c_str(), 1);
  }

  explore::ExploreConfig base;
  base.trials = flag_int(flags, "trials", base.trials);
  if (const auto it = flags.find("seed"); it != flags.end()) {
    const auto seed = parse_u64(it->second);
    if (!seed.has_value()) {
      std::cerr << "replikit-explore: bad seed '" << it->second << "'\n";
      return kUsage;
    }
    base.seed = *seed;
  }
  base.replicas = flag_int(flags, "replicas", base.replicas);
  base.clients = flag_int(flags, "clients", base.clients);
  base.ops_per_client = flag_int(flags, "ops", base.ops_per_client);
  base.keys = flag_int(flags, "keys", base.keys);
  base.max_faults = flag_int(flags, "max-faults", base.max_faults);
  base.max_jitter =
      static_cast<sim::Time>(flag_int(flags, "max-jitter", static_cast<int>(base.max_jitter)));
  base.shrink_violations = flags.count("no-shrink") == 0;

  bool any_violation = false;
  bool io_failure = false;
  // Sweep throughput (wall seconds, trials/s) goes to stdout only: the
  // EXPLORE artifact stays a deterministic function of its seeds.
  std::cout << "| technique | trials | events | faults | ops failed | violations | wall s | "
               "trials/s | artifact |\n"
            << "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto kind : kinds) {
    explore::ExploreConfig config = base;
    config.kind = kind;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = explore::explore(config);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const auto path = explore::save_explore(result);
    if (path.empty()) io_failure = true;
    std::size_t ops_failed = 0;
    for (const auto& row : result.rows) ops_failed += row.result.ops_failed;
    char timing[64];
    std::snprintf(timing, sizeof timing, "%.2f | %.1f", wall_s,
                  wall_s > 0 ? config.trials / wall_s : 0.0);
    std::cout << "| " << core::technique_name(kind) << " | " << config.trials << " | "
              << result.events_total << " | " << result.faults_injected_total << " | "
              << ops_failed << " | " << result.violations.size() << " | " << timing << " | "
              << (path.empty() ? "(write failed)" : path) << " |\n";
    for (const auto& v : result.violations) {
      any_violation = true;
      std::cout << "\nVIOLATION: " << core::technique_name(kind) << " trial "
                << v.trial.trial << " failed " << v.trial.result.failed_check << "\n"
                << "  plan:          " << v.trial.plan << "\n"
                << "  minimal plan:  " << v.minimal_plan << " (after "
                << v.shrink_steps << " reductions, " << v.shrink_runs << " runs)\n"
                << "  witness:       " << v.trial.result.violation << "\n"
                << "  replay:        replikit-explore replay --technique "
                << core::technique_name(kind) << " --workload-seed "
                << explore::hex_u64(v.trial.workload_seed) << " --schedule-seed "
                << explore::hex_u64(v.trial.schedule_seed) << " --plan \""
                << v.minimal_plan << "\"\n";
    }
  }
  if (any_violation) return kViolation;
  if (io_failure) return kIoError;
  return kOk;
}

int cmd_replay(const std::map<std::string, std::string>& flags) {
  explore::TrialConfig tc;
  if (const auto it = flags.find("artifact"); it != flags.end()) {
    std::string error;
    const auto loaded = explore::load_explore_file(it->second, &error);
    if (!loaded.has_value()) {
      std::cerr << "replikit-explore: " << error << "\n";
      return error.rfind("cannot open", 0) == 0 ? kIoError : kCorrupt;
    }
    const explore::TrialRow* row = nullptr;
    std::string plan_text;
    if (const auto trial_it = flags.find("trial"); trial_it != flags.end()) {
      const int index = flag_int(flags, "trial", -1);
      for (const auto& r : loaded->rows) {
        if (r.trial == index) row = &r;
      }
      if (row == nullptr) {
        std::cerr << "replikit-explore: no trial " << index << " in artifact\n";
        return kUsage;
      }
      plan_text = row->plan;
    } else if (const auto viol_it = flags.find("violation"); viol_it != flags.end()) {
      const int index = flag_int(flags, "violation", 0);
      if (index < 0 || index >= static_cast<int>(loaded->violations.size())) {
        std::cerr << "replikit-explore: no violation " << index << " in artifact\n";
        return kUsage;
      }
      const auto& v = loaded->violations[static_cast<std::size_t>(index)];
      row = &v.trial;
      // Default to the minimal reproducer; --original replays the full plan.
      plan_text = flags.count("original") != 0 ? v.trial.plan : v.minimal_plan;
    } else {
      std::cerr << "replikit-explore: --artifact needs --trial N or --violation N\n";
      return kUsage;
    }
    std::string error2;
    const auto plan = explore::parse_plan(plan_text, &error2);
    if (!plan.has_value()) {
      std::cerr << "replikit-explore: artifact plan unparsable: " << error2 << "\n";
      return kCorrupt;
    }
    tc.kind = loaded->config.kind;
    tc.workload_seed = row->workload_seed;
    tc.schedule_seed = row->schedule_seed;
    tc.plan = *plan;
    tc.replicas = loaded->config.replicas;
    tc.clients = loaded->config.clients;
    tc.ops_per_client = loaded->config.ops_per_client;
    tc.keys = loaded->config.keys;
    if (loaded->config.settle > 0) tc.settle = loaded->config.settle;
  } else {
    int exit_code = kUsage;
    const auto parsed = trial_from_flags(flags, &exit_code);
    if (!parsed.has_value()) return exit_code;
    tc = *parsed;
  }

  const auto result = explore::run_trial(tc);
  print_trial(std::cout, tc, result);
  return result.ok ? kOk : kViolation;
}

int cmd_shrink(const std::map<std::string, std::string>& flags) {
  int exit_code = kUsage;
  const auto parsed = trial_from_flags(flags, &exit_code);
  if (!parsed.has_value()) return exit_code;
  const auto probe = explore::run_trial(*parsed);
  if (probe.ok) {
    std::cout << "trial passes all checks; nothing to shrink\n";
    return kOk;
  }
  const auto shrunk = explore::shrink(*parsed);
  std::cout << "original plan: " << explore::format_plan(parsed->plan) << "\n"
            << "minimal plan:  " << explore::format_plan(shrunk.minimal) << "\n"
            << "reductions:    " << shrunk.steps << " (over " << shrunk.runs
            << " runs)\n"
            << "failed check:  " << shrunk.result.failed_check << "\n"
            << "witness:       " << shrunk.result.violation << "\n";
  return kViolation;
}

}  // namespace

int explore_main(int argc, char** argv) {
  // Exploration sweeps are log-noisy at Info; default to Error so the
  // summary table is the output. REPLI_LOG=off|error|info|debug overrides.
  auto level = util::LogLevel::Error;
  if (const char* env = std::getenv("REPLI_LOG"); env != nullptr) {
    const std::string v(env);
    if (v == "off") level = util::LogLevel::Off;
    if (v == "error") level = util::LogLevel::Error;
    if (v == "info") level = util::LogLevel::Info;
    if (v == "debug") level = util::LogLevel::Debug;
  }
  util::Logger::instance().set_level(level);

  if (argc < 2) {
    usage(std::cerr);
    return kUsage;
  }
  const std::string verb = argv[1];
  if (verb == "--help" || verb == "-h" || verb == "help") {
    usage(std::cout);
    return kOk;
  }
  const auto flags = parse_flags(argc, argv, 2);
  if (!flags.has_value()) return kUsage;
  if (verb == "run") return cmd_run(*flags);
  if (verb == "replay") return cmd_replay(*flags);
  if (verb == "shrink") return cmd_shrink(*flags);
  std::cerr << "replikit-explore: unknown command '" << verb << "'\n";
  usage(std::cerr);
  return kUsage;
}

}  // namespace repli::tools

// Fault plans: the replayable decision record of one exploration trial.
//
// A trial is fully determined by (workload seed, schedule seed, plan). The
// plan says *what* the explorer perturbs beyond the seeds: whether
// same-timestamp ties are randomized, how much delivery jitter is allowed,
// and which faults fire when. Plans have a canonical one-line textual form
// so a CI failure can be replayed from a log line:
//
//   plan  := "none" | entry ("; " entry)*
//   entry := "tie"                     randomize same-time event order
//          | "jitter=" N               extra delivery delay in [0, N] us
//          | "loss=" N                 drop each cross-node message with
//                                      probability N per mille (1..999)
//          | "crash@" trig ":r" I      crash-stop replica I
//          | "part@" trig ":r" I "+" D isolate replica I for D us, then heal
//   trig  := "t" N                     at absolute simulated time N us
//          | ph K                      at the K-th cluster-wide completion
//                                      of protocol phase ph
//   ph    := "re" | "sc" | "ex" | "ac" | "end"
//
// Examples: "tie; jitter=400; crash@sc2:r1", "part@t20000:r0+50000",
// "loss=50; crash@t20000:r1".
// format_plan and parse_plan round-trip exactly.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace repli::explore {

struct Trigger {
  enum class Kind { Time, Phase };
  Kind kind = Kind::Time;
  sim::Time at = 0;              // Time: absolute simulated time (us)
  std::string phase;             // Phase: lowercase abbrev ("re".."end")
  std::uint32_t occurrence = 1;  // Phase: the k-th completion, 1-based
};

struct Fault {
  enum class Kind { Crash, Partition };
  Kind kind = Kind::Crash;
  Trigger trigger;
  int replica = 0;            // crash target / isolated replica
  sim::Time heal_after = 0;   // Partition only: isolation duration (us)
};

struct Plan {
  bool tie_break = false;
  sim::Time jitter = 0;  // max extra delivery delay (us); 0 = off
  int loss = 0;          // iid message drop rate, per mille; 0 = off
  std::vector<Fault> faults;

  bool empty() const { return !tie_break && jitter == 0 && loss == 0 && faults.empty(); }
};

/// Canonical textual form (see grammar above); "none" for an empty plan.
std::string format_plan(const Plan& plan);

/// Strict parse of the canonical form (tolerates extra spaces around ";").
/// nullopt on malformed input, with a diagnostic in *error when given.
std::optional<Plan> parse_plan(std::string_view text, std::string* error = nullptr);

}  // namespace repli::explore

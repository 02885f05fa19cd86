// Online replication health monitors (the paper's Section 6 observables).
//
// The monitor consumes periodic samples from the cluster harness plus
// structured events from the techniques, and turns them into the health
// signals no per-node counter captures:
//   - staleness: each replica's committed-version lag behind the frontier
//     (the most-advanced live replica), sampled over simulated time;
//   - divergence: windows during which the replicas' value digests
//     disagree (expected transiently under lazy schemes, a bug if a window
//     never closes on a conflict-free run);
//   - abort attribution: why transactions aborted (certification conflict,
//     lock deadlock, failover-induced, client timeout);
//   - failover timelines: fd suspicion -> promotion -> first commit by the
//     new primary, as one structured record per failed primary.
// Each observation is recorded once, as tracer instants (mon/) and metrics
// (monitor.*), so traces, NDJSON stats, and replikit-report all see the
// same story. The monitor itself keeps only what it needs to match later
// events: the open divergence window's start, the frontier history behind
// staleness age, and the failover timelines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace repli::obs {

enum class AbortCause { Certification, Deadlock, Failover, Timeout, Other };

std::string_view abort_cause_name(AbortCause cause);

struct FailoverTimeline {
  NodeId failed = -1;
  NodeId new_primary = -1;
  Time suspected_at = -1;
  Time promoted_at = -1;
  Time first_commit_at = -1;
  bool complete() const { return suspected_at >= 0 && promoted_at >= 0 && first_commit_at >= 0; }
  /// Suspicion -> first commit by the new primary (-1 until complete).
  Time duration() const { return complete() ? first_commit_at - suspected_at : -1; }
};

class HealthMonitor {
 public:
  /// Records into `tracer` instants and `registry` metrics; both must
  /// outlive the monitor.
  HealthMonitor(Tracer& tracer, Registry& registry) : tracer_(tracer), registry_(registry) {}

  // -- Periodic samples (driven by the cluster harness) --

  /// One staleness sample per live replica: `versions` holds each node's
  /// last committed sequence number. Per node, the version lag behind the
  /// frontier (the most-advanced replica) goes to monitor.staleness_versions
  /// and how long the replica has been missing committed state to
  /// monitor.staleness_age_us.
  void sample_versions(Time at, const std::vector<std::pair<NodeId, std::uint64_t>>& versions);

  /// One digest per live replica; opens/closes divergence windows.
  void digest_sample(Time at, const std::vector<std::pair<NodeId, std::uint64_t>>& digests);

  // -- Structured events (driven by techniques / clients) --

  void abort_event(NodeId node, Time at, AbortCause cause, const std::string& request,
                   const std::string& detail = "");

  /// Failure-detector suspicion of `failed` raised by `by`. Starts a
  /// timeline per failed node (duplicate suspicions are folded in).
  void suspected(NodeId failed, NodeId by, Time at);
  /// `new_primary` took over. Attaches to the latest open timeline.
  void promoted(NodeId new_primary, Time at);
  /// A commit applied on `node`; closes a timeline waiting for its new
  /// primary's first commit.
  void committed(NodeId node, Time at);

  // -- Queries --

  const std::vector<FailoverTimeline>& failovers() const { return failovers_; }
  bool diverged_now() const { return divergence_start_ >= 0; }

 private:
  Tracer& tracer_;
  Registry& registry_;
  // Per-node staleness histogram handles, resolved once: sample_versions
  // runs on every monitor tick and must not redo labeled name lookups.
  std::vector<std::pair<HistogramMetric*, HistogramMetric*>> staleness_hist_;

  Time divergence_start_ = -1;  // start of the open divergence window; -1: none
  std::vector<FailoverTimeline> failovers_;
  // When each frontier value was first observed, for staleness age.
  std::vector<std::pair<std::uint64_t, Time>> frontier_log_;
};

}  // namespace repli::obs

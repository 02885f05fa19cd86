#include "obs/monitor.hh"

#include <algorithm>

#include "util/assert.hh"

namespace repli::obs {

std::string_view abort_cause_name(AbortCause cause) {
  switch (cause) {
    case AbortCause::Certification: return "certification";
    case AbortCause::Deadlock: return "deadlock";
    case AbortCause::Failover: return "failover";
    case AbortCause::Timeout: return "timeout";
    case AbortCause::Other: return "other";
  }
  util::fail("abort_cause_name: bad cause");
}

void HealthMonitor::sample_versions(Time at,
                                    const std::vector<std::pair<NodeId, std::uint64_t>>& versions) {
  if (versions.empty()) return;
  std::uint64_t frontier = 0;
  for (const auto& [node, seq] : versions) frontier = std::max(frontier, seq);
  if (frontier_log_.empty() || frontier_log_.back().first < frontier) {
    frontier_log_.emplace_back(frontier, at);
  }

  for (const auto& [node, seq] : versions) {
    const std::uint64_t lag = frontier - seq;
    // Age: how long ago the frontier first passed this replica's version —
    // i.e. for how long the replica has been missing committed state.
    Time age = 0;
    if (lag > 0) {
      for (const auto& [value, seen] : frontier_log_) {
        if (value > seq) {
          age = at - seen;
          break;
        }
      }
    }
    const auto idx = static_cast<std::size_t>(node);
    if (staleness_hist_.size() <= idx) staleness_hist_.resize(idx + 1, {nullptr, nullptr});
    auto& [lag_hist, age_hist] = staleness_hist_[idx];
    if (lag_hist == nullptr) {
      lag_hist = &registry_.histogram("monitor.staleness_versions", node_label(node));
      age_hist = &registry_.histogram("monitor.staleness_age_us", node_label(node));
    }
    lag_hist->observe(static_cast<double>(lag));
    age_hist->observe(static_cast<double>(age));
  }
}

void HealthMonitor::digest_sample(Time at,
                                  const std::vector<std::pair<NodeId, std::uint64_t>>& digests) {
  if (digests.empty()) return;
  bool diverged = false;
  for (const auto& [node, digest] : digests) {
    if (digest != digests.front().second) diverged = true;
  }

  if (diverged && !diverged_now()) {
    divergence_start_ = at;
    tracer_.instant(digests.front().first, "mon/divergence.start", at, "", {});
    registry_.incr("monitor.divergence_windows");
  } else if (!diverged && diverged_now()) {
    tracer_.instant(digests.front().first, "mon/divergence.end", at, "", {});
    registry_.histogram("monitor.divergence_window_us")
        .observe(static_cast<double>(at - divergence_start_));
    divergence_start_ = -1;
  }
}

void HealthMonitor::abort_event(NodeId node, Time at, AbortCause cause,
                                const std::string& request, const std::string& detail) {
  Attrs attrs{{"cause", std::string(abort_cause_name(cause))}};
  if (!detail.empty()) attrs.emplace_back("detail", detail);
  tracer_.instant(node, "mon/abort", at, request, std::move(attrs));
  registry_.counter("monitor.aborts", label("cause", std::string(abort_cause_name(cause)))).incr();
}

void HealthMonitor::suspected(NodeId failed, NodeId by, Time at) {
  for (const auto& timeline : failovers_) {
    if (timeline.failed == failed) return;  // further suspicions of the same node
  }
  FailoverTimeline timeline;
  timeline.failed = failed;
  timeline.suspected_at = at;
  failovers_.push_back(timeline);
  tracer_.instant(by, "mon/failover.suspected", at, "",
                  Attrs{{"failed", std::to_string(failed)}});
}

void HealthMonitor::promoted(NodeId new_primary, Time at) {
  for (auto it = failovers_.rbegin(); it != failovers_.rend(); ++it) {
    if (it->promoted_at >= 0) continue;
    it->new_primary = new_primary;
    it->promoted_at = at;
    tracer_.instant(new_primary, "mon/failover.promoted", at, "",
                    Attrs{{"failed", std::to_string(it->failed)}});
    return;
  }
}

void HealthMonitor::committed(NodeId node, Time at) {
  for (auto& timeline : failovers_) {
    if (timeline.first_commit_at >= 0 || timeline.new_primary != node) continue;
    if (timeline.promoted_at < 0) continue;
    timeline.first_commit_at = at;
    tracer_.instant(node, "mon/failover.first_commit", at, "",
                    Attrs{{"failed", std::to_string(timeline.failed)},
                          {"duration_us", std::to_string(timeline.duration())}});
    registry_.histogram("monitor.failover_us").observe(static_cast<double>(timeline.duration()));
  }
}

}  // namespace repli::obs

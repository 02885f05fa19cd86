// Heartbeat failure detector.
//
// Every monitored process broadcasts a heartbeat to the group every
// kFdInterval; a peer silent for longer than kFdTimeout becomes suspected. Suspicion is
// revocable (an eventually-perfect / ◊S-style detector): a late heartbeat
// triggers a trust notification. With timeouts generous relative to network
// jitter the detector is accurate; aggressive timeouts yield the false
// suspicions the consensus-based protocols are designed to survive.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "gcs/component.hh"
#include "gcs/group.hh"
#include "obs/metrics.hh"

namespace repli::gcs {

struct Heartbeat : wire::MessageBase<Heartbeat> {
  static constexpr const char* kTypeName = "gcs.Heartbeat";
  std::uint64_t count = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(count);
  }
};

// Heartbeat period, and the silence after which a peer is suspected.
inline constexpr sim::Time kFdInterval = 2 * sim::kMsec;
inline constexpr sim::Time kFdTimeout = 10 * sim::kMsec;

class FailureDetector : public Component {
 public:
  FailureDetector(sim::Process& host, Group group);

  void start() override;
  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  bool suspects(sim::NodeId id) const { return suspected_.contains(id); }
  const std::set<sim::NodeId>& suspected() const { return suspected_; }

  /// The group members not currently suspected, in id order. The host is
  /// never suspected, so it is always among them: this is the one rule for
  /// whom a technique still includes.
  std::vector<sim::NodeId> trusted() const;

  /// Lowest group member not currently suspected (kNoNode if all suspected).
  sim::NodeId lowest_trusted() const;

  /// Listener registration is additive: several components may share one
  /// detector (e.g. ABCAST and membership on the same replica).
  using SuspicionFn = std::function<void(sim::NodeId)>;
  void on_suspect(SuspicionFn fn) { on_suspect_.push_back(std::move(fn)); }
  void on_trust(SuspicionFn fn) { on_trust_.push_back(std::move(fn)); }

 private:
  void tick();

  sim::Process& host_;
  Group group_;
  // Cached handle: tick() fires every interval on every node, so it must
  // not re-resolve the counter by name each time (map nodes are stable).
  obs::Counter* hb_sent_ = nullptr;
  std::uint64_t count_ = 0;
  std::map<sim::NodeId, sim::Time> last_heard_;
  std::set<sim::NodeId> suspected_;
  std::vector<SuspicionFn> on_suspect_;
  std::vector<SuspicionFn> on_trust_;
};

}  // namespace repli::gcs

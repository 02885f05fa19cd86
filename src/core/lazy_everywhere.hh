// Lazy update-everywhere replication, §4.6 / Fig. 11.
//
//   RE  client talks to its local replica
//   EX  the local replica executes and commits optimistically
//   END the client is answered immediately...
//   AC  ...then the update propagates and *reconciliation* decides the
//       after-commit order. Following the paper's suggestion, updates are
//       run through an Atomic Broadcast and the delivery order is the
//       after-commit order; a local commit whose write is overtaken by a
//       later-ordered conflicting update is "undone" (last-ordered wins).
//
// Metrics: "lazy.staleness_us" (commit-to-apply lag) and "lazy.undone"
// (transactions whose effect was lost in reconciliation — the dangers of
// replication, Gray et al. [GHPO96]).
#pragma once

#include <map>
#include <memory>

#include "core/lazy_primary.hh"  // LazyConfig
#include "core/replica.hh"
#include "gcs/abcast_sequencer.hh"
#include "gcs/fd.hh"

namespace repli::core {

struct LeUpdate : wire::MessageBase<LeUpdate> {
  static constexpr const char* kTypeName = "core.LeUpdate";
  std::string txn;
  std::int32_t origin = 0;
  std::map<db::Key, db::Value> writes;
  std::int64_t committed_at = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(origin);
    ar(writes);
    ar(committed_at);
  }
};

class LazyEverywhereReplica : public ReplicaBase {
 public:
  LazyEverywhereReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                        LazyConfig config = {});

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  void on_request(const RequestPtr& request);
  void on_ordered(const LeUpdate& update);  // AbcastOrder policy
  void on_lww(const LeUpdate& update);      // TimestampLww policy
  void count_undone(const std::string& txn);

  gcs::FailureDetector fd_;
  gcs::SequencerAbcast abcast_;
  gcs::Flooder flood_;  // dissemination for the LWW policy (no ordering)
  LazyConfig config_;

  // AbcastOrder policy state.
  std::uint64_t order_counter_ = 0;               // abcast delivery position
  std::map<db::Key, std::uint64_t> key_order_;    // key -> position that wrote it
  std::map<db::Key, std::string> local_pending_;  // optimistic writes awaiting order

  // TimestampLww policy state: per key, the winning (commit time, origin).
  struct Stamp {
    std::int64_t at = -1;
    std::int32_t origin = -1;
    bool operator<(const Stamp& o) const { return std::tie(at, origin) < std::tie(o.at, o.origin); }
  };
  std::map<db::Key, Stamp> key_stamp_;

  std::set<std::string> undone_txns_;
};

}  // namespace repli::core

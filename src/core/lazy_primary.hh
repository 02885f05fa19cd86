// Lazy primary copy replication, §4.5 / Fig. 10.
//
//   RE  update transactions go to the primary; reads go to the client's
//       local replica (that locality is the whole point of lazy schemes)
//   EX  the primary executes and commits locally
//   END the client is answered immediately...
//   AC  ...and the changes propagate to the secondaries afterwards, over
//       FIFO channels, in primary commit order
//
// Secondaries serve (possibly stale) reads; the staleness histogram
// ("lazy.staleness_us") is the weak-consistency price Fig. 16 tabulates.
#pragma once

#include <map>

#include "core/replica.hh"
#include "gcs/fifo.hh"

namespace repli::core {

struct LzUpdate : wire::MessageBase<LzUpdate> {
  static constexpr const char* kTypeName = "core.LzUpdate";
  std::string txn;
  std::map<db::Key, db::Value> writes;
  std::int64_t committed_at = 0;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(writes);
    ar(committed_at);
  }
};

/// How lazy update-everywhere decides which concurrent update wins (§4.6:
/// "reconciliation is needed to decide which updates are the winners").
enum class Reconciliation {
  AbcastOrder,   // the paper's suggestion: ABCAST delivery = after-commit order
  TimestampLww,  // classic last-writer-wins on (commit time, origin)
};

struct LazyConfig {
  /// Delay between local commit and propagation (batching window).
  sim::Time propagation_delay = 5 * sim::kMsec;
  Reconciliation reconciliation = Reconciliation::AbcastOrder;  // update-everywhere only
};

class LazyPrimaryReplica : public ReplicaBase {
 public:
  LazyPrimaryReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                     LazyConfig config = {});

  bool is_primary() const { return group().members().front() == id(); }

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  void on_request(const RequestPtr& request);
  void on_update(const LzUpdate& update);

  gcs::FifoChannel ship_;
  LazyConfig config_;
};

}  // namespace repli::core

// Passive (primary-backup) replication, §3.3 / Fig. 3.
//
//   RE  client sends the request to the primary
//   SC  — none — (only the primary processes)
//   EX  the primary executes the request (nondeterminism is fine)
//   AC  the primary VSCASTs the resulting update; backups apply it;
//       the primary waits until every backup of the current view acked
//   END the primary answers the client
//
// Failover: view change promotes the next-lowest member; the reply cache
// travels inside the updates, so a retried request is answered exactly once.
// The client notices primary failure (timeout/redirect) — per Fig. 5 this
// technique is *not* failure-transparent.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "core/replica.hh"
#include "gcs/fd.hh"
#include "gcs/link.hh"
#include "gcs/view.hh"

namespace repli::core {

/// One executed request inside an update.
struct PbEntry {
  std::string request_id;
  std::int32_t client = 0;
  std::string result;
  std::map<db::Key, db::Value> writes;
  template <class Ar>
  void fields(Ar& ar) {
    ar(request_id);
    ar(client);
    ar(result);
    ar(writes);
  }
};

/// The primary executes a group of up to batch_max_ops queued requests
/// back-to-back and VSCASTs their writesets as ONE update; backups apply the
/// entries in order and ack once per update. An update (and its ack) is
/// keyed by its first entry's request id: a request belongs to exactly one
/// update.
struct PbUpdate : wire::MessageBase<PbUpdate> {
  static constexpr const char* kTypeName = "core.PbUpdate";
  std::vector<PbEntry> entries;
  template <class Ar>
  void fields(Ar& ar) {
    ar(entries);
  }
  const std::string& key() const { return entries.front().request_id; }
};

struct PbUpdateAck : wire::MessageBase<PbUpdateAck> {
  static constexpr const char* kTypeName = "core.PbUpdateAck";
  std::string request_id;
  template <class Ar>
  void fields(Ar& ar) {
    ar(request_id);
  }
};

class PassiveReplica : public ReplicaBase {
 public:
  PassiveReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env);

  bool is_primary() const { return vg_.view().primary() == id(); }
  const gcs::View& view() const { return vg_.view(); }

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  void on_request(const ClientRequest& request);
  void pump();
  void on_update(const PbUpdate& update);
  void on_ack(sim::NodeId from, const PbUpdateAck& ack);
  void maybe_reply(const std::string& update_key);
  void on_view(const gcs::View& view);

  gcs::FailureDetector fd_;
  gcs::ViewGroup vg_;
  gcs::ReliableLink ack_link_;  // update acks must survive message loss
  std::unique_ptr<util::Rng> exec_rng_;
  std::unique_ptr<db::LocalRandomChoices> choices_;

  struct Answer {
    std::string request_id;
    std::int32_t client = 0;
    std::string result;
  };
  struct PendingUpdate {
    std::vector<Answer> answers;
    std::set<sim::NodeId> awaiting;  // backups whose ack is outstanding
    sim::Time ac_start = 0;
    bool applied = false;  // own VS-delivery applied locally
  };
  std::map<std::string, PendingUpdate> pending_;  // primary-side, by update key
  // Groups execute one at a time at the primary: the next group only starts
  // after the previous update has been applied locally, so each transaction
  // observes its predecessors (serializable primary order). The group in
  // flight is the first `in_flight_` requests of the queue; they stay queued
  // (so retries are deduplicated) until then.
  std::deque<ClientRequest> queue_;
  std::set<std::string> queued_ids_;
  std::size_t in_flight_ = 0;
};

}  // namespace repli::core

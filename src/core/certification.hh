// Certification-based database replication, §5.4.2 / Fig. 14.
//
//   RE  client sends to its local server (the delegate)
//   EX  the delegate executes the whole transaction on shadow copies,
//       recording the versions it read — *optimistically*, without any
//       prior coordination
//   AC  the (readset-versions, writeset) pair is ABCAST; every replica
//       certifies it in delivery order: if any item read has been
//       overwritten since, the transaction aborts — identically everywhere,
//       because certification is a deterministic function of the delivery
//       order
//   END the delegate answers (after a bounded number of abort-and-retry
//       rounds for contended transactions)
#pragma once

#include <map>
#include <set>

#include "core/replica.hh"
#include "gcs/abcast_sequencer.hh"
#include "gcs/fd.hh"

namespace repli::core {

struct CtCertify : wire::MessageBase<CtCertify> {
  static constexpr const char* kTypeName = "core.CtCertify";
  std::string txn;
  std::uint32_t attempt = 1;
  std::int32_t delegate = 0;
  std::int32_t client = 0;
  std::string result;
  std::map<db::Key, std::uint64_t> read_versions;
  std::map<db::Key, db::Value> writes;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(attempt);
    ar(delegate);
    ar(client);
    ar(result);
    ar(read_versions);
    ar(writes);
  }
};

struct CertificationConfig {
  int max_attempts = 10;  // re-execute + re-certify rounds before giving up
  /// Serve read-only transactions from the local copy without certifying
  /// them ([KA98]'s optimization). Reads become as cheap as lazy ones but
  /// may observe a slightly stale serialization point (the local replica's
  /// prefix of the total order) — the SER/CS trade-off the KA98 protocol
  /// suite exposes.
  bool local_reads = false;
};

class CertificationReplica : public ReplicaBase {
 public:
  CertificationReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                       CertificationConfig config = {});

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  void on_request(const RequestPtr& request);
  void execute_and_broadcast(const RequestPtr& request, int attempt);
  void on_delivered(const CtCertify& cert);
  void close_ac_span(const std::string& txn, const char* verdict);

  gcs::FailureDetector fd_;
  gcs::SequencerAbcast abcast_;
  CertificationConfig config_;

  std::map<std::string, RequestPtr> driving_;  // delegate-side, for retries
  std::set<std::string> decided_;                 // txns certified (either way)
  std::map<std::string, obs::SpanId> ac_spans_;   // delegate: broadcast -> verdict
};

}  // namespace repli::core

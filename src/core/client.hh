// Client process: submits transactions to the replicated service using the
// interaction style its technique dictates, handles redirects, retries on
// timeout (the paper's non-transparent failure model), records the
// functional-model RE/END phases and the linearizability history.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/history.hh"
#include "core/messages.hh"
#include "gcs/flood.hh"
#include "gcs/group.hh"
#include "obs/monitor.hh"

namespace repli::core {

enum class SubmitMode {
  AbcastGroup,  // inject into the replicas' ABCAST (active, semi-active)
  FloodGroup,   // reliably disseminate to all replicas (semi-passive)
  ToPrimary,    // talk to the believed primary, follow redirects (passive,
                // eager/lazy primary copy)
  ToHome,       // talk to an assigned local replica (update-everywhere DB)
};

struct ClientConfig {
  SubmitMode mode = SubmitMode::ToHome;
  gcs::Group replicas;
  sim::NodeId home = 0;            // first ToHome target / LazyPrimary read target
  bool reads_at_home = false;      // lazy primary: read-only ops go to home
  std::uint32_t group_channel = 0; // flood channel for AbcastGroup/FloodGroup
  sim::Time retry_timeout = 500 * sim::kMsec;
  int max_attempts = 8;
  History* history = nullptr;             // shared recorder, outlives clients
  obs::HealthMonitor* monitor = nullptr;  // abort attribution, outlives clients
};

class Client : public gcs::ComponentHost {
 public:
  using DoneFn = std::function<void(const ClientReply&)>;

  Client(sim::NodeId id, sim::Simulator& sim, ClientConfig config);

  /// Submits a transaction; `done` fires exactly once, with ok=false after
  /// `max_attempts` unanswered tries.
  void submit(Transaction txn, DoneFn done);

  /// Convenience for the single-operation model.
  void submit_op(db::Operation op, DoneFn done) { submit(Transaction{std::move(op)}, done); }

  int timeouts() const { return timeouts_; }

 protected:
  void on_unhandled(sim::NodeId from, wire::MessagePtr msg) override;

 private:
  struct Outstanding {
    std::shared_ptr<ClientRequest> request;
    DoneFn done;
    TimerId timer = kNoTimer;
    sim::Time armed = 0;  // when the retry timer was set (retry-wait span)
    int attempts = 0;
    sim::NodeId target = sim::kNoNode;  // point-to-point modes
    std::size_t history_index = 0;
  };

  void dispatch(Outstanding& out);
  void arm_retry(const std::string& request_id);
  void finish(const std::string& request_id, const ClientReply& reply);
  sim::NodeId next_target(sim::NodeId current) const;

  ClientConfig config_;
  std::unique_ptr<gcs::Flooder> flood_;  // AbcastGroup / FloodGroup modes
  std::map<std::string, Outstanding> outstanding_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_abcast_lseq_ = 1;
  sim::NodeId primary_hint_ = sim::kNoNode;
  sim::NodeId home_ = sim::kNoNode;  // ToHome target; a timeout moves it on
  int timeouts_ = 0;
};

}  // namespace repli::core

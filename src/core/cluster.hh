// Cluster: one-stop harness wiring a simulator, N replicas of a chosen
// technique, M clients with the matching interaction style, a shared
// stored-procedure registry, and history/trace recording. Tests, benches
// and examples all build on this.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/active.hh"
#include "core/certification.hh"
#include "core/client.hh"
#include "core/cluster_config.hh"
#include "core/eager_locking.hh"
#include "core/history.hh"
#include "core/lazy_primary.hh"
#include "core/replica.hh"
#include "core/technique.hh"
#include "db/exec.hh"
#include "obs/monitor.hh"
#include "sim/simulator.hh"

namespace repli::core {

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  sim::Simulator& sim() { return *sim_; }
  History& history() { return history_; }
  db::ProcRegistry& registry() { return registry_; }
  obs::HealthMonitor& monitor() { return monitor_; }
  const ClusterConfig& config() const { return config_; }

  int replica_count() const { return config_.replicas; }
  int client_count() const { return config_.clients; }
  ReplicaBase& replica(int i);
  Client& client(int i);
  sim::NodeId replica_node(int i) const { return static_cast<sim::NodeId>(i); }
  sim::NodeId client_node(int i) const {
    return static_cast<sim::NodeId>(config_.replicas + i);
  }

  /// Crash-stops replica `i`. Validated: an out-of-range index fails with
  /// a clear message (it would otherwise silently crash a *client* node),
  /// and re-crashing an already-crashed replica is an explicit no-op.
  void crash_replica(int i);

  /// Async submit from client `i`.
  void submit(int client, Transaction txn, Client::DoneFn done);
  void submit_op(int client, db::Operation op, Client::DoneFn done);

  /// Submit and run the simulation until the reply arrives (or `budget`
  /// simulated time passes — then the returned reply has ok=false).
  ClientReply run_op(int client, db::Operation op, sim::Time budget = 30 * sim::kSec);
  ClientReply run_txn(int client, Transaction txn, sim::Time budget = 30 * sim::kSec);

  /// Runs the simulation for up to `duration` more simulated time
  /// (propagation, failover, reconciliation, ...), returning as soon as the
  /// run is quiescent: no foreground event pending and none dispatched for
  /// quiet_window(). The simulated time skipped is recorded in the
  /// sim.settle.skipped_us histogram.
  void settle(sim::Time duration);

  /// The quiet window settle() waits out: the longest chain by which a
  /// background event (heartbeat, failure-detector tick, membership poll)
  /// can still create foreground work. Derived from the failure-detector,
  /// membership and network configs; never configured.
  sim::Time quiet_window() const;

  /// True when all *live* replicas hold value-identical storage.
  bool converged() const;
  std::vector<std::uint64_t> storage_digests() const;

  /// Takes one health-monitor sample right now. Call at run teardown: a
  /// run shorter than monitor_interval would otherwise end with zero
  /// samples and an empty STATS artifact.
  void final_monitor_sample() { sample_monitor(); }

 private:
  void sample_monitor();
  void monitor_tick();

  ClusterConfig config_;
  db::ProcRegistry registry_;
  History history_;
  std::unique_ptr<sim::Simulator> sim_;
  obs::HealthMonitor monitor_;  // records into sim_'s tracer and registry
  std::vector<ReplicaBase*> replicas_;
  std::vector<Client*> clients_;
};

/// Convenience operation builders shared by tests/benches/examples.
db::Operation op_get(const db::Key& key);
db::Operation op_put(const db::Key& key, const db::Value& value);
db::Operation op_add(const db::Key& key, std::int64_t delta);
db::Operation op_append(const db::Key& key, const db::Value& suffix);
db::Operation op_transfer(const db::Key& from, const db::Key& to, std::int64_t amount);
db::Operation op_spin_nondet(const db::Key& key);

}  // namespace repli::core

// Base class shared by every technique's replica: storage, stored-procedure
// registry, CPU cost model, phase tracing, reply/dedup plumbing.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/history.hh"
#include "core/messages.hh"
#include "core/technique.hh"
#include "db/exec.hh"
#include "gcs/component.hh"
#include "gcs/group.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "obs/monitor.hh"
#include "obs/trace.hh"
#include "sim/batcher.hh"
#include "sim/trace.hh"

namespace repli::core {

// The CPU cost model: simulated time to execute one operation, and to apply
// one writeset.
constexpr sim::Time kExecCost = 100 * sim::kUsec;
constexpr sim::Time kApplyCost = 20 * sim::kUsec;

struct ReplicaEnv {
  gcs::Group group;                            // all replica node ids
  const db::ProcRegistry* registry = nullptr;  // shared, outlives replicas
  History* history = nullptr;                  // shared recorder, outlives replicas
  obs::HealthMonitor* monitor = nullptr;       // shared health monitor, outlives replicas
  // The batch policy, threaded from ClusterConfig to every batching layer
  // (group commit, abcast envelopes and order batches, link packs).
  sim::BatchPolicy batch;
};

class ReplicaBase : public gcs::ComponentHost {
 public:
  ReplicaBase(sim::NodeId id, sim::Simulator& sim, std::string name, ReplicaEnv env);

  db::Storage& storage() { return storage_; }
  const db::Storage& storage() const { return storage_; }
  const gcs::Group& group() const { return env_.group; }

  /// Transactions queued behind locks here right now (0 for techniques
  /// without a lock manager) — a saturation gauge for the cluster monitor.
  virtual std::size_t lock_waiters() const { return 0; }

 protected:
  const ReplicaEnv& env() const { return env_; }
  const db::ProcRegistry& registry() const { return *env_.registry; }

  /// Marks a functional-model phase for `request` on this replica.
  void phase(const std::string& request, sim::Phase p, sim::Time start, sim::Time end);
  void phase_now(const std::string& request, sim::Phase p);

  /// The run-wide span tracer / metrics registry (owned by the Simulator).
  obs::Tracer& tracer();
  obs::Registry& metrics();

  /// The run's shared health monitor.
  obs::HealthMonitor& monitor() { return *env_.monitor; }

  /// Records a completed sub-phase span on this node. Record the enclosing
  /// phase() first: identical intervals nest under the earlier-recorded span.
  obs::SpanId span(std::string name, sim::Time start, sim::Time end, const std::string& request,
                   obs::Attrs attrs = {});
  obs::SpanId span_now(std::string name, const std::string& request, obs::Attrs attrs = {});

  /// Records a db/exec.op span for `op` run over [start, now] and bumps the
  /// db.exec.op_us histogram.
  void exec_span(const db::Operation& op, sim::Time start, const std::string& request);

  /// Sends a ClientReply, inside `request_id`'s own causal trace.
  void reply(sim::NodeId client, const std::string& request_id, bool ok, std::string result);

  /// Sends the client to replica `to` instead (a Redirect).
  void redirect(const ClientRequest& request, sim::NodeId to);

  /// The EX phase of a whole request: runs every op in `txn`. If an op
  /// throws, answers the client ok=false with the error and returns nullopt;
  /// otherwise records the EX phase and the db/exec.op span over
  /// [start, now] and returns the last op's result.
  std::optional<std::string> execute_request(const ClientRequest& request, db::TxnExec& txn,
                                             db::ChoiceSource& choices, sim::Time start);

  /// Installs a committed writeset under the next commit sequence number and
  /// records the commit, unless the writeset is empty (the seq is taken
  /// anyway).
  void install(const std::string& txn, const std::map<db::Key, db::Value>& writes,
               const std::map<db::Key, std::uint64_t>& reads = {});

  /// Reply cache for exactly-once semantics: returns true (and re-replies)
  /// when `request_id` was already answered here.
  bool replay_cached_reply(sim::NodeId client, const std::string& request_id);
  void cache_reply(const std::string& request_id, bool ok, const std::string& result);
  bool has_cached_reply(const std::string& request_id) const {
    return reply_cache_.contains(request_id);
  }

  /// Records a commit in the shared history and tells the health monitor.
  void record_commit(const std::string& txn, const std::map<db::Key, db::Value>& writes,
                     const std::map<db::Key, std::uint64_t>& reads, std::uint64_t commit_seq);

  /// Remembers the causal trace id `request_id` arrived under (the ambient
  /// context of the current delivery event). Call from on_request.
  void note_request_trace(const std::string& request_id);
  std::uint64_t request_trace(const std::string& request_id) const;

  /// RAII: re-enters the causal trace `request_id` arrived under (no-op when
  /// unknown). Use when resuming work for a request from an event that
  /// belongs to another transaction — queue pumps, lock grants, batch
  /// flushes — so the spans recorded and messages sent while resumed stay in
  /// the right trace.
  class TraceResume {
   public:
    TraceResume(ReplicaBase& replica, const std::string& request_id) {
      const auto trace = replica.request_trace(request_id);
      obs::Tracer& tracer = replica.tracer();
      if (trace != 0 && trace != tracer.context().trace_id) {
        scope_.emplace(tracer, obs::TraceContext{trace, obs::kNoSpan, 0});
      }
    }

   private:
    std::optional<obs::ContextScope> scope_;
  };

  db::Storage storage_;

 private:
  ReplicaEnv env_;
  std::map<std::string, std::pair<bool, std::string>> reply_cache_;
  std::map<std::string, std::uint64_t> request_traces_;
};

}  // namespace repli::core

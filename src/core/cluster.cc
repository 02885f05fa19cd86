#include "core/cluster.hh"

#include "core/channels.hh"
#include "core/eager_abcast.hh"
#include "core/eager_primary.hh"
#include "core/lazy_everywhere.hh"
#include "core/passive.hh"
#include "core/semi_active.hh"
#include "core/semi_passive.hh"
#include "gcs/view.hh"
#include "util/assert.hh"

namespace repli::core {

namespace {

sim::BatchPolicy batch_policy(const ClusterConfig& config) {
  return {config.batch_max_ops, config.batch_flush_us * sim::kUsec};
}

/// Checks `config` and derives the network's coalescing window from it:
/// batching implies frame coalescing over the same window.
ClusterConfig checked(ClusterConfig config) {
  util::ensure(config.replicas >= 1, "Cluster: need at least one replica");
  util::ensure(config.clients >= 1, "Cluster: need at least one client");
  util::ensure(config.batch_max_ops >= 1, "Cluster: batch_max_ops must be >= 1");
  const sim::BatchPolicy batch = batch_policy(config);
  config.net.coalesce_window = batch.batching() ? batch.window : 0;
  return config;
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(checked(std::move(config))),
      registry_(db::ProcRegistry::with_builtins()),
      sim_(std::make_unique<sim::Simulator>(config_.seed, config_.net)),
      monitor_(sim_->tracer(), sim_->metrics()) {
  std::vector<sim::NodeId> members;
  for (int i = 0; i < config_.replicas; ++i) members.push_back(static_cast<sim::NodeId>(i));
  const gcs::Group group(members);

  ReplicaEnv env;
  env.group = group;
  env.registry = &registry_;
  env.history = &history_;
  env.monitor = &monitor_;
  env.batch = batch_policy(config_);

  for (int i = 0; i < config_.replicas; ++i) {
    switch (config_.kind) {
      case TechniqueKind::Active:
        replicas_.push_back(&sim_->spawn<ActiveReplica>(
            env, config_.active_abcast_impl == 0 ? AbcastImpl::Sequencer
                                                 : AbcastImpl::Consensus));
        break;
      case TechniqueKind::Passive:
        replicas_.push_back(&sim_->spawn<PassiveReplica>(env));
        break;
      case TechniqueKind::SemiActive:
        replicas_.push_back(&sim_->spawn<SemiActiveReplica>(env));
        break;
      case TechniqueKind::SemiPassive:
        replicas_.push_back(&sim_->spawn<SemiPassiveReplica>(env));
        break;
      case TechniqueKind::EagerPrimary:
        replicas_.push_back(&sim_->spawn<EagerPrimaryReplica>(env));
        break;
      case TechniqueKind::EagerLocking: {
        EagerLockingConfig lk;
        lk.max_attempts = config_.locking_max_attempts;
        lk.read_one_write_all = config_.locking_read_one_write_all;
        replicas_.push_back(&sim_->spawn<EagerLockingReplica>(env, lk));
        break;
      }
      case TechniqueKind::EagerAbcast: {
        EagerAbcastConfig ea;
        ea.optimistic_execution = config_.eager_abcast_optimistic;
        replicas_.push_back(&sim_->spawn<EagerAbcastReplica>(env, ea));
        break;
      }
      case TechniqueKind::LazyPrimary: {
        LazyConfig lazy;
        lazy.propagation_delay = config_.lazy_propagation_delay;
        replicas_.push_back(&sim_->spawn<LazyPrimaryReplica>(env, lazy));
        break;
      }
      case TechniqueKind::LazyEverywhere: {
        LazyConfig lazy;
        lazy.propagation_delay = config_.lazy_propagation_delay;
        lazy.reconciliation = config_.lazy_reconciliation == 0
                                  ? Reconciliation::AbcastOrder
                                  : Reconciliation::TimestampLww;
        replicas_.push_back(&sim_->spawn<LazyEverywhereReplica>(env, lazy));
        break;
      }
      case TechniqueKind::Certification: {
        CertificationConfig ct;
        ct.max_attempts = config_.certification_max_attempts;
        ct.local_reads = config_.certification_local_reads;
        replicas_.push_back(&sim_->spawn<CertificationReplica>(env, ct));
        break;
      }
    }
  }

  for (int i = 0; i < config_.clients; ++i) {
    ClientConfig cc;
    cc.replicas = group;
    cc.history = &history_;
    cc.monitor = &monitor_;
    cc.retry_timeout = config_.client_retry_timeout;
    cc.max_attempts = config_.client_max_attempts;
    cc.home = static_cast<sim::NodeId>(i % config_.replicas);
    switch (config_.kind) {
      case TechniqueKind::Active:
      case TechniqueKind::SemiActive:
        cc.mode = SubmitMode::AbcastGroup;
        cc.group_channel = kAbcastChannel;
        break;
      case TechniqueKind::SemiPassive:
        cc.mode = SubmitMode::FloodGroup;
        cc.group_channel = kRequestChannel;
        break;
      case TechniqueKind::Passive:
      case TechniqueKind::EagerPrimary:
        cc.mode = SubmitMode::ToPrimary;
        break;
      case TechniqueKind::LazyPrimary:
        cc.mode = SubmitMode::ToHome;
        cc.reads_at_home = true;
        break;
      case TechniqueKind::EagerLocking:
        cc.mode = SubmitMode::ToHome;
        // A locking transaction may legitimately stall for several
        // lock-wait timeouts plus retry backoffs; retrying the client
        // earlier would spawn duplicate work at another delegate (§4.1:
        // the client waits for "its" server).
        cc.retry_timeout = std::max(cc.retry_timeout, 6 * db::kLockWaitTimeout);
        break;
      case TechniqueKind::EagerAbcast:
      case TechniqueKind::LazyEverywhere:
      case TechniqueKind::Certification:
        cc.mode = SubmitMode::ToHome;
        break;
    }
    clients_.push_back(&sim_->spawn<Client>(cc));
  }

  sim_->start_all();
  if (config_.monitor_interval > 0) {
    sim_->schedule_after(config_.monitor_interval, [this] { monitor_tick(); },
                         sim::Simulator::kNoOwner, sim::EventClass::Background);
  }
}

void Cluster::sample_monitor() {
  std::vector<std::pair<obs::NodeId, std::uint64_t>> versions;
  std::vector<std::pair<obs::NodeId, std::uint64_t>> digests;
  std::size_t lock_waiters = 0;
  for (int i = 0; i < config_.replicas; ++i) {
    const auto node = replica_node(i);
    if (sim_->crashed(node)) continue;
    const auto& replica = *replicas_[static_cast<std::size_t>(i)];
    versions.emplace_back(node, replica.storage().last_commit_seq());
    digests.emplace_back(node, replica.storage().value_digest());
    lock_waiters += replica.lock_waiters();
  }
  monitor_.sample_versions(sim_->now(), versions);
  monitor_.digest_sample(sim_->now(), digests);
  // Saturation gauges: depth of the run's queues at the sampling instant —
  // rising depths flag an overloaded layer long before latency shows it.
  auto& metrics = sim_->metrics();
  metrics.histogram("queue.sim_events")
      .observe(static_cast<double>(sim_->pending_events()));
  metrics.histogram("queue.net_inflight")
      .observe(static_cast<double>(sim_->net().inflight_total()));
  metrics.histogram("queue.net_inflight_max_link")
      .observe(static_cast<double>(sim_->net().inflight_max_link()));
  metrics.histogram("queue.lock_waiters").observe(static_cast<double>(lock_waiters));
}

void Cluster::monitor_tick() {
  sample_monitor();
  sim_->schedule_after(config_.monitor_interval, [this] { monitor_tick(); },
                       sim::Simulator::kNoOwner, sim::EventClass::Background);
}

void Cluster::crash_replica(int i) {
  util::ensure(i >= 0 && i < config_.replicas,
               "Cluster::crash_replica: index is not a replica (crashing a "
               "client node is almost certainly a fault-plan bug)");
  sim_->crash(replica_node(i));
}

ReplicaBase& Cluster::replica(int i) {
  util::ensure(i >= 0 && i < config_.replicas, "Cluster::replica: bad index");
  return *replicas_[static_cast<std::size_t>(i)];
}

Client& Cluster::client(int i) {
  util::ensure(i >= 0 && i < config_.clients, "Cluster::client: bad index");
  return *clients_[static_cast<std::size_t>(i)];
}

void Cluster::submit(int client_index, Transaction txn, Client::DoneFn done) {
  client(client_index).submit(std::move(txn), std::move(done));
}

void Cluster::submit_op(int client_index, db::Operation op, Client::DoneFn done) {
  client(client_index).submit_op(std::move(op), std::move(done));
}

ClientReply Cluster::run_op(int client_index, db::Operation op, sim::Time budget) {
  return run_txn(client_index, Transaction{std::move(op)}, budget);
}

ClientReply Cluster::run_txn(int client_index, Transaction txn, sim::Time budget) {
  std::optional<ClientReply> reply;
  submit(client_index, std::move(txn), [&reply](const ClientReply& r) { reply = r; });
  const sim::Time deadline = sim_->now() + budget;
  while (!reply.has_value() && sim_->now() < deadline) {
    sim_->run_until(std::min(deadline, sim_->now() + 10 * sim::kMsec));
  }
  if (!reply.has_value()) {
    ClientReply failure;
    failure.ok = false;
    failure.result = "simulation-budget-exhausted";
    return failure;
  }
  return *reply;
}

void Cluster::settle(sim::Time duration) {
  const sim::Time horizon = sim_->now() + duration;
  sim_->run_until_quiet(horizon, quiet_window());
  sim_->metrics().histogram("sim.settle.skipped_us")
      .observe(static_cast<double>(horizon - sim_->now()));
}

sim::Time Cluster::quiet_window() const {
  // A crash becomes foreground work only through this chain: the crashed
  // node's last heartbeat lands one delivery late, the peer suspects it
  // after kFdTimeout of silence at its next tick (one kFdInterval, plus one
  // more for the heartbeat just missed), and the membership poll acts on
  // the suspicion within kViewFlushCheckInterval. A heal's trust (next heartbeat plus
  // one delivery) is strictly shorter. One delivery is bounded by the base
  // latency, twenty exponential-jitter means and the exploration jitter.
  const sim::Time delivery = config_.net.base_latency +
                             static_cast<sim::Time>(20 * config_.net.jitter_mean) +
                             sim_->perturb_max_delay();
  return gcs::kFdTimeout + 2 * gcs::kFdInterval + gcs::kViewFlushCheckInterval + delivery;
}

std::vector<std::uint64_t> Cluster::storage_digests() const {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < config_.replicas; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    if (sim_->crashed(node)) continue;
    out.push_back(replicas_[static_cast<std::size_t>(i)]->storage().value_digest());
  }
  return out;
}

bool Cluster::converged() const {
  const auto digests = storage_digests();
  for (const auto d : digests) {
    if (d != digests.front()) return false;
  }
  return true;
}

db::Operation op_get(const db::Key& key) {
  db::Operation op;
  op.proc = "get";
  op.args = {key};
  op.read_set = {key};
  return op;
}

db::Operation op_put(const db::Key& key, const db::Value& value) {
  db::Operation op;
  op.proc = "put";
  op.args = {key, value};
  op.write_set = {key};
  return op;
}

db::Operation op_add(const db::Key& key, std::int64_t delta) {
  db::Operation op;
  op.proc = "add";
  op.args = {key, std::to_string(delta)};
  op.read_set = {key};
  op.write_set = {key};
  return op;
}

db::Operation op_append(const db::Key& key, const db::Value& suffix) {
  db::Operation op;
  op.proc = "append";
  op.args = {key, suffix};
  op.read_set = {key};
  op.write_set = {key};
  return op;
}

db::Operation op_transfer(const db::Key& from, const db::Key& to, std::int64_t amount) {
  db::Operation op;
  op.proc = "transfer";
  op.args = {from, to, std::to_string(amount)};
  op.read_set = {from, to};
  op.write_set = {from, to};
  return op;
}

db::Operation op_spin_nondet(const db::Key& key) {
  db::Operation op;
  op.proc = "spin_nondet";
  op.args = {key};
  op.write_set = {key};
  return op;
}

}  // namespace repli::core

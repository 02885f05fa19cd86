// Configuration for Cluster (kept separate so techniques' headers can stay
// out of config-only includes).
#pragma once

#include <cstdint>

#include "core/technique.hh"
#include "sim/network.hh"
#include "sim/time.hh"

namespace repli::core {

enum class AbcastImpl;  // defined in core/active.hh

struct ClusterConfig {
  TechniqueKind kind = TechniqueKind::Active;
  int replicas = 3;
  int clients = 1;
  std::uint64_t seed = 1;
  sim::NetworkConfig net;
  // Health-monitor sampling period (staleness + divergence digests over all
  // live replicas); 0 disables periodic sampling (events still flow).
  sim::Time monitor_interval = 20 * sim::kMsec;

  // Technique-specific knobs (defaults are fine for most uses).
  int active_abcast_impl = 0;             // 0 sequencer, 1 consensus-based
  sim::Time lazy_propagation_delay = 5 * sim::kMsec;
  int locking_max_attempts = 10;
  bool locking_read_one_write_all = true;  // §5.4.1: reads lock locally only
  int lazy_reconciliation = 0;  // 0 = ABCAST after-commit order, 1 = timestamp LWW
  bool eager_abcast_optimistic = false;  // [KPAS99a] optimistic processing
  int certification_max_attempts = 10;
  bool certification_local_reads = false;  // [KA98] reads served locally
  sim::Time client_retry_timeout = 500 * sim::kMsec;
  int client_max_attempts = 8;

  // Batching fast path. The two knobs form one sim::BatchPolicy that the
  // cluster threads down to every batching layer: abcast submission and
  // ordering batches (gcs), link payload packing, group commit / writeset
  // batching in the techniques, and physical frame coalescing in the
  // network (net.coalesce_window is set to batch_flush_us when
  // batch_max_ops > 1, and to 0 otherwise). At batch_max_ops == 1 (the
  // default) a batch of one is a group of one that commits at once; the gcs
  // layers and the network take their direct, unbatched path.
  int batch_max_ops = 1;
  std::int64_t batch_flush_us = 200;  // flush window for every batching layer
};

}  // namespace repli::core

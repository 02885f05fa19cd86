// Figure 6: Gray et al.'s two-parameter classification of database
// replication (update propagation: eager/lazy x update location:
// primary/update-everywhere). Both axes probed at runtime:
//   - eager: the first Agreement Coordination event precedes the client
//     response in the phase trace;
//   - primary copy: an update submitted to a non-primary replica gets
//     redirected instead of being processed there.
#include <iostream>
#include <vector>

#include "bench/common.hh"

using namespace repli;
using core::TechniqueKind;

namespace {

bool probe_eager(TechniqueKind kind) {
  core::ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.seed = 7;
  core::Cluster cluster(cfg);
  cluster.run_op(0, core::op_put("k", "v"), 60 * sim::kSec);
  cluster.settle(2 * sim::kSec);
  const auto requests = sim::requests(cluster.sim().tracer());
  if (requests.empty()) return false;
  sim::Time response_at = -1;
  sim::Time first_ac = -1;
  for (const auto& ev : sim::phases_for(cluster.sim().tracer(), requests.front())) {
    if (ev.phase == sim::Phase::Response) response_at = ev.start;
    if (ev.phase == sim::Phase::AgreementCoord && first_ac < 0) first_ac = ev.start;
  }
  if (first_ac < 0) return true;  // no AC at all: coordination finished pre-reply (SC)
  return first_ac <= response_at;
}

bool probe_update_everywhere(TechniqueKind kind) {
  // Submit an update via a client homed at replica 1 and look at the first
  // hop: primary-copy techniques funnel every update to the primary (node
  // 0); update-everywhere techniques accept it at the client's own server.
  core::ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 2;  // client 1 -> home replica 1
  cfg.seed = 7;
  core::Cluster cluster(cfg);
  const auto reply = cluster.run_op(1, core::op_put("k", "v"), 60 * sim::kSec);
  if (!reply.ok) return false;
  const auto client_node = cluster.client_node(1);
  for (const auto& flow : cluster.sim().tracer().flows()) {
    if (flow.from == client_node && flow.type == "core.ClientRequest") {
      return flow.to != cluster.replica_node(0);
    }
  }
  return false;
}

}  // namespace

int main() {
  bench::print_header("Figure 6 — replication in database systems: probed classification");
  const std::vector<TechniqueKind> dbs = {TechniqueKind::EagerPrimary, TechniqueKind::EagerLocking,
                                          TechniqueKind::EagerAbcast, TechniqueKind::LazyPrimary,
                                          TechniqueKind::LazyEverywhere,
                                          TechniqueKind::Certification};
  std::cout << "  technique                            eager (paper/probed)   "
               "update-everywhere (paper/probed)\n";
  bench::print_rule(100);
  int mismatches = 0;
  auto fmt = [](bool b) { return b ? std::string("yes") : std::string("no "); };
  for (const auto kind : dbs) {
    const auto& info = core::technique_info(kind);
    const bool eager = probe_eager(kind);
    const bool everywhere = probe_update_everywhere(kind);
    const bool eager_ok = eager == info.eager;
    const bool ue_ok = everywhere == info.update_everywhere;
    mismatches += (eager_ok ? 0 : 1) + (ue_ok ? 0 : 1);
    std::cout << "  " << std::string(info.name);
    for (std::size_t i = info.name.size(); i < 36; ++i) std::cout << ' ';
    std::cout << fmt(info.eager) << " / " << fmt(eager) << " " << bench::verdict(eager_ok)
              << "     " << fmt(info.update_everywhere) << " / " << fmt(everywhere) << " "
              << bench::verdict(ue_ok) << "\n";
  }
  std::cout << "\n  the four quadrants of Fig. 6:\n"
            << "    eager + primary copy        : eager-primary-copy (hot standby)\n"
            << "    eager + update everywhere   : distributed locking, ABCAST-based, certification\n"
            << "    lazy  + primary copy        : lazy-primary-copy\n"
            << "    lazy  + update everywhere   : lazy-update-everywhere (reconciliation)\n";
  return mismatches == 0 ? 0 : 1;
}

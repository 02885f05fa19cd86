// Shared driver for the per-figure protocol benches (Figs. 1-4, 7-14):
// runs one instrumented request through the technique, prints the paper's
// claimed phase pattern next to the measured one, an ASCII timeline in the
// style of the paper's figures, and the message mix.
#pragma once

#include <initializer_list>
#include <iostream>
#include <map>

#include "bench/common.hh"

namespace repli::bench {

inline int figure_single_op(core::TechniqueKind kind, const std::string& figure,
                            const std::string& description) {
  const auto& info = core::technique_info(kind);
  print_header(figure + " — " + std::string(info.name) + ": " + description);

  core::ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 1;
  cfg.seed = 42;
  core::Cluster cluster(cfg);
  const auto probe = probe_single_update(cluster);

  std::cout << "  paper pattern    : " << info.paper_pattern << "\n";
  std::cout << "  measured pattern : " << probe.measured_pattern << "   "
            << verdict(probe.measured_pattern == info.paper_pattern) << "\n";
  std::cout << "  update latency   : " << probe.latency_us << " us  (3 replicas, "
            << "one client, LAN-like simulated network)\n";
  std::cout << "\n";
  print_timeline(cluster, probe.request_id);
  std::cout << "\n";
  print_message_mix(cluster);
  return probe.measured_pattern == info.paper_pattern ? 0 : 1;
}

/// `looped` names the phases the figure's per-operation loop repeats: each
/// must occur at least once per operation on the serving replica (the
/// primary or the delegate: the node of the first phase after RE).
inline int figure_multi_op(core::TechniqueKind kind, const std::string& figure,
                           const std::string& description,
                           std::initializer_list<sim::Phase> looped) {
  const auto& info = core::technique_info(kind);
  print_header(figure + " — " + std::string(info.name) + " (multi-operation transaction): " +
               description);

  core::ClusterConfig cfg;
  cfg.kind = kind;
  cfg.replicas = 3;
  cfg.clients = 1;
  cfg.seed = 42;
  core::Cluster cluster(cfg);
  const core::Transaction txn{core::op_put("x", "1"), core::op_put("y", "2"),
                              core::op_add("x", 5)};
  const auto reply = cluster.run_txn(0, txn, 60 * sim::kSec);
  cluster.settle(2 * sim::kSec);
  const auto requests = sim::requests(cluster.sim().tracer());
  const auto request_id = requests.empty() ? std::string{} : requests.front();
  const auto pattern = sim::pattern_to_string(sim::pattern(cluster.sim().tracer(), request_id));

  // The per-op loop: count how often each phase occurs on the serving replica.
  const auto events = sim::phases_for(cluster.sim().tracer(), request_id);
  sim::NodeId server = sim::kNoNode;
  std::map<sim::Phase, std::size_t> at_server;
  for (const auto& ev : events) {
    if (server == sim::kNoNode && ev.phase != sim::Phase::Request) server = ev.node;
    if (ev.node == server) ++at_server[ev.phase];
  }
  bool loop_ok = server != sim::kNoNode;
  for (const auto phase : looped) loop_ok = loop_ok && at_server[phase] >= txn.size();
  const bool match = reply.ok && pattern == info.paper_pattern && loop_ok;

  std::cout << "  transaction      : put(x,1); put(y,2); add(x,5)  ->  "
            << (reply.ok ? "committed" : "ABORTED") << "\n";
  std::cout << "  paper pattern    : " << info.paper_pattern
            << "  (with the per-operation coordination loop of " << figure << ")\n";
  std::cout << "  measured pattern : " << pattern << "   " << verdict(match) << "\n";
  std::cout << "  phase events on  : "
            << (server == sim::kNoNode ? "-" : cluster.sim().process(server).name()) << "  SC x"
            << at_server[sim::Phase::ServerCoord] << "  EX x" << at_server[sim::Phase::Execution]
            << "  AC x" << at_server[sim::Phase::AgreementCoord] << "  (3 operations -> the loop";
  for (const auto phase : looped) std::cout << " " << sim::phase_abbrev(phase);
  std::cout << " repeats per operation)\n\n";
  print_timeline(cluster, request_id);
  std::cout << "\n";
  print_message_mix(cluster);
  return match ? 0 : 1;
}

}  // namespace repli::bench

#include "core/certification.hh"

#include "core/channels.hh"
#include "sim/simulator.hh"

namespace repli::core {

CertificationReplica::CertificationReplica(sim::NodeId id, sim::Simulator& sim, ReplicaEnv env,
                                           CertificationConfig config)
    : ReplicaBase(id, sim, "certification-" + std::to_string(id), std::move(env)),
      fd_(*this, group()),
      abcast_(*this, group(), fd_, kAbcastChannel, this->env().batch),
      config_(config) {
  add_component(fd_);
  add_component(abcast_);
  abcast_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto cert = wire::message_cast<CtCertify>(msg);
    if (!cert) return;
    // Certification must observe every previously-delivered transaction's
    // writes, so the check+apply runs as one unit on the CPU queue, which
    // preserves delivery order.
    cpu_execute(kApplyCost, [this, cert] { on_delivered(*cert); });
  });
}

void CertificationReplica::on_unhandled(sim::NodeId /*from*/, wire::MessagePtr msg) {
  if (const auto request = wire::message_cast<ClientRequest>(msg)) on_request(request);
}

void CertificationReplica::on_request(const RequestPtr& request) {
  if (replay_cached_reply(request->client, request->request_id)) return;
  if (driving_.contains(request->request_id)) return;  // retry of an in-flight txn
  if (config_.local_reads && request->read_only()) {
    // [KA98] local reads: no broadcast, no certification — answer from the
    // local copy's committed state.
    const auto exec_start = now();
    cpu_execute(kExecCost * static_cast<sim::Time>(request->ops.size()),
                [this, request, exec_start] {
      const std::string& id = request->request_id;
      db::TxnExec txn(id, storage_);
      db::SeededChoices choices(wire::fnv1a(id));
      const auto result = execute_request(*request, txn, choices, exec_start);
      if (!result) return;
      cache_reply(id, true, *result);
      reply(request->client, id, true, *result);
    });
    return;
  }
  driving_.emplace(request->request_id, request);
  execute_and_broadcast(request, 1);
}

void CertificationReplica::execute_and_broadcast(const RequestPtr& request, int attempt) {
  const auto exec_start = now();
  cpu_execute(kExecCost * static_cast<sim::Time>(request->ops.size()),
              [this, request, attempt, exec_start] {
    const std::string& id = request->request_id;
    if (!driving_.contains(id)) return;  // resolved meanwhile
    // Optimistic execution on shadow copies (no coordination yet).
    db::TxnExec txn(id, storage_);
    db::SeededChoices choices(wire::fnv1a(id) + static_cast<std::uint64_t>(attempt));
    const auto result = execute_request(*request, txn, choices, exec_start);
    if (!result) {
      driving_.erase(id);
      return;
    }

    CtCertify cert;
    cert.txn = id;
    cert.attempt = static_cast<std::uint32_t>(attempt);
    cert.delegate = this->id();
    cert.client = request->client;
    cert.result = *result;
    cert.read_versions = txn.read_versions();
    cert.writes = txn.writes();
    // Delegate-side AC span: open now, closed when the certification verdict
    // arrives back through the total order.
    ac_spans_[id] = tracer().begin(this->id(), "core/ac.certify", now(), id);
    tracer().attr(ac_spans_[id], "attempt", std::to_string(attempt));
    abcast_.abcast(cert);
  });
}

void CertificationReplica::close_ac_span(const std::string& txn, const char* verdict) {
  const auto it = ac_spans_.find(txn);
  if (it == ac_spans_.end()) return;
  tracer().attr(it->second, "verdict", verdict);
  tracer().end(it->second, now());
  ac_spans_.erase(it);
}

void CertificationReplica::on_delivered(const CtCertify& cert) {
  if (decided_.contains(cert.txn)) return;  // earlier attempt already passed
  const auto cert_start = now();

  // The certification test: did anything we read change since we read it?
  bool pass = true;
  for (const auto& [key, version_read] : cert.read_versions) {
    const auto current = storage_.get(key);
    const std::uint64_t version_now = current.has_value() ? current->version : 0;
    if (version_now != version_read) {
      pass = false;
      break;
    }
  }

  if (pass) {
    decided_.insert(cert.txn);
    if (!cert.writes.empty()) install(cert.txn, cert.writes, cert.read_versions);
    cache_reply(cert.txn, true, cert.result);
    phase(cert.txn, sim::Phase::AgreementCoord, cert_start, now());
    if (cert.delegate == id()) {
      close_ac_span(cert.txn, "commit");
      driving_.erase(cert.txn);
      reply(cert.client, cert.txn, true, cert.result);
    }
    return;
  }

  // Certification abort: deterministic at every replica; counted once, at
  // the delegate, so the metric means "transaction attempts aborted".
  phase(cert.txn, sim::Phase::AgreementCoord, cert_start, now());
  if (cert.delegate != id()) return;
  close_ac_span(cert.txn, "abort");
  sim().metrics().incr("certification.aborts");
  monitor().abort_event(id(), now(), obs::AbortCause::Certification, cert.txn,
                        "writeset-conflict");
  const auto it = driving_.find(cert.txn);
  if (it == driving_.end()) return;
  if (static_cast<int>(cert.attempt) >= config_.max_attempts) {
    reply(cert.client, cert.txn, false, "certification-abort");
    driving_.erase(it);
    return;
  }
  // Re-execute against fresher state and try again.
  execute_and_broadcast(it->second, static_cast<int>(cert.attempt) + 1);
}

}  // namespace repli::core

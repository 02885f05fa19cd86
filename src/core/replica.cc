#include "core/replica.hh"

#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::core {

ReplicaBase::ReplicaBase(sim::NodeId id, sim::Simulator& sim, std::string name, ReplicaEnv env)
    : ComponentHost(id, sim, std::move(name)), env_(std::move(env)) {
  util::ensure(env_.registry != nullptr && env_.history != nullptr && env_.monitor != nullptr,
               "ReplicaBase: null procedure registry, history or monitor");
  util::ensure(env_.group.contains(id), "ReplicaBase: replica not in its own group");
}

void ReplicaBase::phase(const std::string& request, sim::Phase p, sim::Time start,
                        sim::Time end) {
  sim().trace().phase(request, id(), p, start, end);
}

void ReplicaBase::phase_now(const std::string& request, sim::Phase p) {
  phase(request, p, now(), now());
}

obs::Tracer& ReplicaBase::tracer() { return sim().tracer(); }

obs::Registry& ReplicaBase::metrics() { return sim().metrics(); }

obs::SpanId ReplicaBase::span(std::string name, sim::Time start, sim::Time end,
                              const std::string& request, obs::Attrs attrs) {
  return tracer().record(id(), std::move(name), start, end, request, std::move(attrs));
}

obs::SpanId ReplicaBase::span_now(std::string name, const std::string& request, obs::Attrs attrs) {
  return span(std::move(name), now(), now(), request, std::move(attrs));
}

void ReplicaBase::exec_span(const db::Operation& op, sim::Time start, const std::string& request) {
  span("db/exec.op", start, now(), request, obs::Attrs{{"proc", op.proc}});
  metrics().histogram("db.exec.op_us").observe(static_cast<double>(now() - start));
}

void ReplicaBase::reply(sim::NodeId client, const std::string& request_id, bool ok,
                        std::string result) {
  // A reply often leaves from a continuation of another transaction (an
  // apply or ack that completes a whole group): send it under its own
  // request's trace so its critical path reaches the client.
  TraceResume resume{*this, request_id};
  auto msg = std::make_shared<ClientReply>();
  msg->request_id = request_id;
  msg->ok = ok;
  msg->result = std::move(result);
  send(client, std::move(msg));
}

void ReplicaBase::redirect(const ClientRequest& request, sim::NodeId to) {
  auto msg = std::make_shared<Redirect>();
  msg->request_id = request.request_id;
  msg->try_instead = to;
  send(request.client, std::move(msg));
}

std::optional<std::string> ReplicaBase::execute_request(const ClientRequest& request,
                                                        db::TxnExec& txn,
                                                        db::ChoiceSource& choices,
                                                        sim::Time start) {
  std::string result;
  try {
    for (const auto& op : request.ops) result = txn.run(registry(), op, choices);
  } catch (const std::exception& e) {
    reply(request.client, request.request_id, false, e.what());
    return std::nullopt;
  }
  phase(request.request_id, sim::Phase::Execution, start, now());
  exec_span(request.ops.back(), start, request.request_id);
  return result;
}

void ReplicaBase::install(const std::string& txn, const std::map<db::Key, db::Value>& writes,
                          const std::map<db::Key, std::uint64_t>& reads) {
  const auto seq = storage_.next_commit_seq();
  for (const auto& [key, value] : writes) storage_.put(key, value, seq, txn);
  if (!writes.empty()) record_commit(txn, writes, reads, seq);
}

bool ReplicaBase::replay_cached_reply(sim::NodeId client, const std::string& request_id) {
  const auto it = reply_cache_.find(request_id);
  if (it == reply_cache_.end()) return false;
  reply(client, request_id, it->second.first, it->second.second);
  return true;
}

void ReplicaBase::cache_reply(const std::string& request_id, bool ok, const std::string& result) {
  reply_cache_.emplace(request_id, std::make_pair(ok, result));
}

void ReplicaBase::note_request_trace(const std::string& request_id) {
  const auto trace = tracer().context().trace_id;
  if (trace != 0) request_traces_[request_id] = trace;
}

std::uint64_t ReplicaBase::request_trace(const std::string& request_id) const {
  const auto it = request_traces_.find(request_id);
  return it == request_traces_.end() ? 0 : it->second;
}

void ReplicaBase::record_commit(const std::string& txn,
                                const std::map<db::Key, db::Value>& writes,
                                const std::map<db::Key, std::uint64_t>& reads,
                                std::uint64_t commit_seq) {
  env_.monitor->committed(id(), now());
  CommitRecord rec;
  rec.replica = id();
  rec.txn = txn;
  rec.writes = writes;
  rec.read_versions = reads;
  rec.commit_seq = commit_seq;
  rec.at = now();
  env_.history->commit(std::move(rec));
}

}  // namespace repli::core

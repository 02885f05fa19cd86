#include "core/client.hh"

#include "gcs/abcast.hh"
#include "obs/context.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::core {

Client::Client(sim::NodeId id, sim::Simulator& sim, ClientConfig config)
    : ComponentHost(id, sim, "client-" + std::to_string(id)), config_(std::move(config)) {
  util::ensure(config_.replicas.size() > 0, "Client: empty replica group");
  util::ensure(config_.history != nullptr && config_.monitor != nullptr,
               "Client: null history or monitor");
  primary_hint_ = config_.replicas.members().front();
  home_ = config_.home;
  if (config_.mode == SubmitMode::AbcastGroup || config_.mode == SubmitMode::FloodGroup) {
    util::ensure(config_.group_channel != 0, "Client: group mode needs a channel");
    flood_ = std::make_unique<gcs::Flooder>(*this, config_.replicas, config_.group_channel);
    add_component(*flood_);  // routes the link acks of our floods
  }
}

void Client::submit(Transaction txn, DoneFn done) {
  util::ensure(!txn.empty(), "Client::submit: empty transaction");
  auto request = std::make_shared<ClientRequest>();
  request->request_id = "c" + std::to_string(id()) + "-" + std::to_string(next_seq_++);
  request->client = id();
  request->ops = txn;

  Outstanding out;
  out.request = request;
  out.done = std::move(done);
  OpRecord rec;
  rec.client = id();
  rec.request_id = request->request_id;
  rec.ops = txn;
  rec.invoke = now();
  out.history_index = config_.history->begin_op(std::move(rec));
  const std::string request_id = request->request_id;
  auto [it, inserted] = outstanding_.emplace(request_id, std::move(out));
  util::ensure(inserted, "Client::submit: duplicate request id");

  // Each submit roots a fresh causal trace: the RE span and every message
  // sent while dispatching (and everything they transitively cause on the
  // replicas) carries this trace id.
  obs::ContextScope scope(sim().tracer(),
                          obs::TraceContext{sim().tracer().new_trace_id(), obs::kNoSpan, 0});
  sim().trace().phase(request_id, id(), sim::Phase::Request, now(), now());
  dispatch(it->second);
}

sim::NodeId Client::next_target(sim::NodeId current) const {
  const auto& members = config_.replicas.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == current) return members[(i + 1) % members.size()];
  }
  return members.front();
}

void Client::dispatch(Outstanding& out) {
  ++out.attempts;
  switch (config_.mode) {
    case SubmitMode::AbcastGroup: {
      // Inject the request into the replicas' ABCAST data channel: the
      // client addresses the group, not an individual server (§3.2).
      gcs::AbData data;
      data.origin = id();
      data.lseq = next_abcast_lseq_++;
      data.payload = wire::to_blob(*out.request);
      flood_->rbcast(data);
      break;
    }
    case SubmitMode::FloodGroup:
      flood_->rbcast(*out.request);
      break;
    case SubmitMode::ToPrimary:
      out.target = primary_hint_;
      send(out.target, out.request);
      break;
    case SubmitMode::ToHome: {
      sim::NodeId target = home_;
      if (config_.reads_at_home) {
        // Lazy primary copy: updates must go to the primary; reads are
        // served by the client's local replica.
        target = out.request->read_only() ? config_.home : primary_hint_;
      }
      if (out.attempts > 1) target = out.target == sim::kNoNode ? target : next_target(out.target);
      out.target = target;
      send(target, out.request);
      break;
    }
  }
  arm_retry(out.request->request_id);
}

void Client::arm_retry(const std::string& request_id) {
  auto& out = outstanding_.at(request_id);
  out.armed = now();
  out.timer = set_timer(config_.retry_timeout, [this, request_id] {
    const auto it = outstanding_.find(request_id);
    if (it == outstanding_.end()) return;
    ++timeouts_;
    Outstanding& out = it->second;
    // The wait for an answer that never came is backoff time on the
    // critical path; name it so the waterfall files it under retransmit.
    sim().tracer().record(id(), "core/client.retry_wait", out.armed, now(), request_id);
    if (out.attempts >= config_.max_attempts) {
      config_.monitor->abort_event(id(), now(), obs::AbortCause::Timeout, request_id,
                                   "client-gave-up");
      ClientReply failure;
      failure.request_id = request_id;
      failure.ok = false;
      failure.result = "timeout";
      finish(request_id, failure);
      return;
    }
    // The paper's failure model for primary-based schemes: the client
    // notices the failure and retries against the next server, and later
    // requests start there too. A home moves the same way; lazy primary
    // copy keeps its read home (its §4.3 non-recovery is documented).
    if (config_.mode == SubmitMode::ToPrimary) primary_hint_ = next_target(out.target);
    if (config_.mode == SubmitMode::ToHome && !config_.reads_at_home) {
      home_ = next_target(out.target);
    }
    sim().metrics().incr("client.retries");
    util::log_info("client ", id(), ": retrying ", request_id, " (attempt ",
                   out.attempts + 1, ")");
    dispatch(out);
  });
}

void Client::finish(const std::string& request_id, const ClientReply& reply) {
  const auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;  // duplicate reply (active replication)
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  cancel_timer(out.timer);
  const auto end_span = sim().trace().phase(request_id, id(), sim::Phase::Response, now(), now());
  if (!reply.ok) sim().tracer().attr(end_span, "ok", "0");
  OpRecord& rec = config_.history->op(out.history_index);
  rec.response = now();
  rec.ok = reply.ok;
  rec.result = reply.result;
  if (out.done) out.done(reply);
}

void Client::on_unhandled(sim::NodeId from, wire::MessagePtr msg) {
  if (const auto reply = wire::message_cast<ClientReply>(msg)) {
    finish(reply->request_id, *reply);
    return;
  }
  if (const auto redirect = wire::message_cast<Redirect>(msg)) {
    const auto it = outstanding_.find(redirect->request_id);
    if (it == outstanding_.end()) return;
    primary_hint_ = redirect->try_instead;
    Outstanding& out = it->second;
    cancel_timer(out.timer);
    out.target = redirect->try_instead;
    send(out.target, out.request);
    arm_retry(redirect->request_id);
    return;
  }
  (void)from;
}

}  // namespace repli::core

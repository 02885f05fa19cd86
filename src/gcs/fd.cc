#include "gcs/fd.hh"

#include "sim/simulator.hh"
#include "util/log.hh"

namespace repli::gcs {

FailureDetector::FailureDetector(sim::Process& host, Group group)
    : host_(host), group_(std::move(group)) {}

void FailureDetector::start() {
  const sim::Time t0 = host_.now();
  for (const auto m : group_.members()) {
    if (m != host_.id()) last_heard_[m] = t0;
  }
  tick();
}

void FailureDetector::tick() {
  // Broadcast our heartbeat. One immutable message serves every peer this
  // tick — messages are shared_ptr<const>, so fan-out needs no copies.
  if (hb_sent_ == nullptr) hb_sent_ = &host_.sim().metrics().counter("gcs.fd.heartbeats_sent");
  auto hb = std::make_shared<Heartbeat>();
  hb->count = ++count_;
  for (const auto m : group_.members()) {
    if (m == host_.id()) continue;
    host_.send(m, hb);
    hb_sent_->incr();
  }
  // Re-evaluate suspicions.
  for (const auto& [peer, heard] : last_heard_) {
    const bool late = host_.now() - heard > kFdTimeout;
    if (late && !suspected_.contains(peer)) {
      suspected_.insert(peer);
      host_.sim().metrics().incr("gcs.fd.suspicions");
      host_.sim().tracer().instant(host_.id(), "gcs/fd.suspect", host_.now(), "",
                                   obs::Attrs{{"peer", std::to_string(peer)}});
      util::log_info("fd ", host_.id(), ": suspects ", peer);
      for (const auto& fn : on_suspect_) fn(peer);
    }
  }
  // Background: the tick is a liveness event, not work of its own.
  host_.set_timer(kFdInterval, [this] { tick(); }, sim::EventClass::Background);
}

bool FailureDetector::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  const auto hb = wire::message_cast<Heartbeat>(msg);
  if (!hb) return false;
  last_heard_[from] = host_.now();
  if (const auto it = suspected_.find(from); it != suspected_.end()) {
    suspected_.erase(it);
    host_.sim().metrics().incr("gcs.fd.trust_restored");
    host_.sim().tracer().instant(host_.id(), "gcs/fd.trust", host_.now(), "",
                                 obs::Attrs{{"peer", std::to_string(from)}});
    util::log_info("fd ", host_.id(), ": trusts ", from, " again");
    for (const auto& fn : on_trust_) fn(from);
  }
  return true;
}

std::vector<sim::NodeId> FailureDetector::trusted() const {
  std::vector<sim::NodeId> out;
  for (const auto m : group_.members()) {
    if (!suspects(m)) out.push_back(m);
  }
  return out;
}

sim::NodeId FailureDetector::lowest_trusted() const {
  for (const auto m : group_.members()) {
    if (!suspects(m)) return m;
  }
  return sim::kNoNode;
}

}  // namespace repli::gcs

#include "gcs/consensus.hh"

#include <algorithm>

#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::gcs {

Consensus::Consensus(sim::Process& host, Group group, FailureDetector& fd, std::uint32_t channel,
                     sim::BatchPolicy batch)
    : host_(host),
      group_(std::move(group)),
      fd_(fd),
      link_(host, channel, batch),
      decide_flood_(host, group_, channel + 1, batch) {
  link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
    const std::uint64_t k = [&]() -> std::uint64_t {
      if (const auto m = wire::message_cast<CsEstimate>(msg)) return m->instance;
      if (const auto m = wire::message_cast<CsProposal>(msg)) return m->instance;
      if (const auto m = wire::message_cast<CsAck>(msg)) return m->instance;
      return std::uint64_t(-1);
    }();
    if (k == std::uint64_t(-1) || decided_.contains(k)) return;
    Instance& inst = instance(k);

    if (const auto est = wire::message_cast<CsEstimate>(msg)) {
      // A peer is in a later round than us: catch up so the rotating
      // coordinator makes progress even when our deadline has not fired.
      if (est->round > inst.round) {
        inst.round = est->round;
        begin_round(k);
      }
      if (est->round == inst.round && coordinator_of(inst.round) == host_.id()) {
        inst.estimates.emplace(from, *est);
        maybe_propose_as_coordinator(k);
      }
      return;
    }
    if (const auto prop = wire::message_cast<CsProposal>(msg)) {
      if (prop->round < inst.round || inst.acked_this_round) return;
      if (prop->round > inst.round) {
        inst.round = prop->round;
        begin_round(k);
      }
      // Adopt the coordinator's proposal and ack it.
      inst.has_estimate = true;
      inst.estimate = prop->value;
      inst.ts = prop->round + 1;
      inst.acked_this_round = true;
      CsAck ack;
      ack.instance = k;
      ack.round = prop->round;
      link_.send_reliable(coordinator_of(prop->round), ack);
      return;
    }
    if (const auto ack = wire::message_cast<CsAck>(msg)) {
      if (ack->round != inst.round || coordinator_of(inst.round) != host_.id()) return;
      inst.acks.insert(from);
      if (inst.acks.size() >= group_.majority()) {
        util::ensure(inst.has_estimate, "Consensus: acked round without estimate");
        decide(k, inst.estimate);
      }
      return;
    }
  });

  decide_flood_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) {
    const auto dec = wire::message_cast<CsDecide>(msg);
    if (!dec || decided_.contains(dec->instance)) return;
    if (const auto it = active_.find(dec->instance); it != active_.end()) {
      close_round_span(it->second, "decided");
      host_.sim().metrics().histogram("gcs.consensus.rounds_to_decide")
          .observe(static_cast<double>(it->second.round + 1));
    }
    host_.sim().metrics().incr("gcs.consensus.decided");
    decided_.emplace(dec->instance, dec->value);
    active_.erase(dec->instance);
    if (decide_) decide_(dec->instance, dec->value);
  });
}

const std::string& Consensus::decision(std::uint64_t instance) const {
  const auto it = decided_.find(instance);
  util::ensure(it != decided_.end(), "Consensus::decision: not decided");
  return it->second;
}

sim::NodeId Consensus::coordinator_of(std::uint64_t round) const {
  return group_.members()[round % group_.size()];
}

Consensus::Instance& Consensus::instance(std::uint64_t k) {
  const auto it = active_.find(k);
  if (it != active_.end()) return it->second;
  auto& inst = active_[k];
  // Joining an instance lazily (triggered by a peer's message): enter round
  // 0 as a participant with no estimate.
  begin_round(k);
  return inst;
}

void Consensus::propose(std::uint64_t k, std::string value) {
  if (decided_.contains(k)) return;
  const auto it = active_.find(k);
  if (it == active_.end()) {
    Instance& inst = active_[k];
    inst.has_estimate = true;
    inst.estimate = std::move(value);
    inst.ts = 0;
    begin_round(k);
    return;
  }
  Instance& inst = it->second;
  if (inst.has_estimate) return;  // first proposal wins locally
  inst.has_estimate = true;
  inst.estimate = std::move(value);
  inst.ts = 0;
  // Late proposal into an already-active instance: surface the estimate to
  // the current coordinator without resetting round state.
  CsEstimate est;
  est.instance = k;
  est.round = inst.round;
  est.has_value = true;
  est.estimate = inst.estimate;
  est.ts = 0;
  const sim::NodeId coord = coordinator_of(inst.round);
  if (coord == host_.id()) {
    inst.estimates.insert_or_assign(host_.id(), est);
    maybe_propose_as_coordinator(k);
  } else {
    link_.send_reliable(coord, est);
  }
}

void Consensus::participate(std::uint64_t k) {
  if (decided_.contains(k)) return;
  instance(k);
}

void Consensus::close_round_span(Instance& inst, const char* outcome) {
  auto& tracer = host_.sim().tracer();
  const obs::Span* span = tracer.find(inst.round_span);
  if (span == nullptr || !span->open) return;
  tracer.attr(inst.round_span, "outcome", outcome);
  tracer.attr(inst.round_span, "estimates", std::to_string(inst.estimates.size()));
  tracer.attr(inst.round_span, "votes", std::to_string(inst.acks.size()));
  tracer.end(inst.round_span, host_.now());
}

void Consensus::begin_round(std::uint64_t k) {
  Instance& inst = active_[k];
  inst.acked_this_round = false;
  inst.estimates.clear();
  inst.acks.clear();
  inst.proposal_sent = false;

  close_round_span(inst, "superseded");
  auto& tracer = host_.sim().tracer();
  inst.round_span = tracer.begin(host_.id(), "gcs/consensus.round", host_.now());
  tracer.attr(inst.round_span, "instance", std::to_string(k));
  tracer.attr(inst.round_span, "round", std::to_string(inst.round));
  tracer.attr(inst.round_span, "coordinator", std::to_string(coordinator_of(inst.round)));
  host_.sim().metrics().incr("gcs.consensus.rounds");

  // Phase 1: send our estimate to the round coordinator.
  CsEstimate est;
  est.instance = k;
  est.round = inst.round;
  est.has_value = inst.has_estimate;
  est.estimate = inst.estimate;
  est.ts = inst.ts;
  const sim::NodeId coord = coordinator_of(inst.round);
  if (coord == host_.id()) {
    inst.estimates.emplace(host_.id(), est);
    maybe_propose_as_coordinator(k);
  } else {
    link_.send_reliable(coord, est);
  }
  arm_deadline(k);
}

void Consensus::arm_deadline(std::uint64_t k) {
  Instance& inst = active_[k];
  const std::uint64_t epoch = ++inst.deadline_epoch;
  const std::uint64_t round = inst.round;
  sim::Time timeout = kConsensusRoundTimeout;
  for (std::uint64_t r = 0; r < std::min<std::uint64_t>(round, 20); ++r) {
    timeout = std::min(timeout * 2, kConsensusMaxRoundTimeout);
  }
  host_.set_timer(timeout, [this, k, epoch, round] {
    const auto it = active_.find(k);
    if (it == active_.end()) return;  // decided meanwhile
    Instance& cur = it->second;
    if (cur.deadline_epoch != epoch || cur.round != round) return;  // stale
    advance_round(k);
  });
}

void Consensus::advance_round(std::uint64_t k) {
  Instance& inst = active_[k];
  ++inst.round;
  host_.sim().metrics().incr("gcs.consensus.round_advances");
  util::log_debug("consensus ", host_.id(), ": instance ", k, " advancing to round ", inst.round);
  begin_round(k);
}

void Consensus::maybe_propose_as_coordinator(std::uint64_t k) {
  Instance& inst = active_[k];
  if (inst.proposal_sent) return;
  if (inst.estimates.size() < group_.majority()) return;

  // Pick the estimate with the highest timestamp; if none has a value,
  // fall back to the deferred-initial-value provider.
  const CsEstimate* best = nullptr;
  for (const auto& [node, est] : inst.estimates) {
    if (!est.has_value) continue;
    if (best == nullptr || est.ts > best->ts) best = &est;
  }
  std::string value;
  if (best != nullptr) {
    value = best->estimate;
  } else if (provider_) {
    const auto produced = provider_(k);
    if (!produced.has_value()) return;  // nothing to propose yet
    value = *produced;
  } else {
    return;  // cannot act as coordinator without any value
  }

  inst.proposal_sent = true;
  inst.has_estimate = true;
  inst.estimate = value;

  CsProposal prop;
  prop.instance = k;
  prop.round = inst.round;
  prop.value = value;
  const wire::Blob blob = wire::share_blob(prop);  // one encoding for every member
  for (const auto m : group_.members()) {
    if (m == host_.id()) continue;
    link_.send_blob(m, blob);
  }
  // Coordinator adopts and acks its own proposal.
  inst.ts = inst.round + 1;
  inst.acked_this_round = true;
  inst.acks.insert(host_.id());
  if (inst.acks.size() >= group_.majority()) decide(k, inst.estimate);
}

void Consensus::decide(std::uint64_t k, const std::string& value) {
  if (decided_.contains(k)) return;
  CsDecide dec;
  dec.instance = k;
  dec.value = value;
  decide_flood_.rbcast(dec);  // flooding delivers locally too
}

bool Consensus::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  if (decide_flood_.handle(from, msg)) return true;
  return link_.handle(from, msg);
}

}  // namespace repli::gcs

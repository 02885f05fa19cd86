#include "db/tpc.hh"

#include "util/assert.hh"
#include "util/log.hh"

namespace repli::db {

TwoPhaseCommit::TwoPhaseCommit(sim::Process& host, std::uint32_t channel)
    : host_(host), link_(host, channel) {
  link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg) {
    if (const auto prep = wire::message_cast<TpcPrepare>(msg)) {
      deliver_prepare(from, *prep);
      return;
    }
    if (const auto vote = wire::message_cast<TpcVote>(msg)) {
      count_vote(vote->txn, from, vote->yes);
      return;
    }
    if (const auto dec = wire::message_cast<TpcDecision>(msg)) {
      deliver_decision(*dec);
      return;
    }
  });
}

void TwoPhaseCommit::coordinate(const std::string& txn,
                                const std::vector<sim::NodeId>& participants,
                                const std::string& payload, OutcomeFn done) {
  if (coordinating_.contains(txn)) util::fail("TwoPhaseCommit: txn already coordinated: " + txn);
  Pending& p = coordinating_[txn];
  p.participants = participants;
  p.done = std::move(done);

  TpcPrepare prep;
  prep.txn = txn;
  prep.payload = payload;
  for (const auto node : participants) {
    if (node == host_.id()) {
      deliver_prepare(host_.id(), prep);
    } else {
      link_.send_fifo(node, prep);
    }
  }
  // Abort if votes do not all arrive in time (participant crash).
  host_.set_timer(kTpcVoteTimeout, [this, txn] {
    const auto it = coordinating_.find(txn);
    if (it == coordinating_.end() || it->second.decided) return;
    util::log_debug("2pc ", host_.id(), ": vote timeout, aborting ", txn);
    decide(txn, false);
  });
}

void TwoPhaseCommit::deliver_prepare(sim::NodeId coordinator, const TpcPrepare& prep) {
  if (resolved_.contains(prep.txn) || in_doubt_.contains(prep.txn)) return;  // duplicate
  const bool yes = vote_ ? vote_(prep.txn, prep.payload) : true;
  if (yes) in_doubt_.emplace(prep.txn, InDoubt{host_.now(), coordinator});

  TpcVote vote;
  vote.txn = prep.txn;
  vote.yes = yes;
  if (coordinator == host_.id()) {
    count_vote(prep.txn, host_.id(), yes);  // local short-circuit
  } else {
    link_.send_fifo(coordinator, vote);
  }
  if (!yes) {
    // A no-voter can resolve unilaterally: the global outcome is abort.
    resolved_.insert(prep.txn);
    if (outcome_) outcome_(prep.txn, false);
  }
}

void TwoPhaseCommit::count_vote(const std::string& txn, sim::NodeId from, bool yes) {
  const auto it = coordinating_.find(txn);
  if (it == coordinating_.end() || it->second.decided) return;
  if (!yes) {
    decide(txn, false);
    return;
  }
  Pending& p = it->second;
  p.yes_votes.insert(from);
  if (p.yes_votes.size() == p.participants.size()) decide(txn, true);
}

void TwoPhaseCommit::decide(const std::string& txn, bool commit) {
  const auto it = coordinating_.find(txn);
  if (it == coordinating_.end()) util::fail("TwoPhaseCommit::decide: unknown txn " + txn);
  Pending& p = it->second;
  if (p.decided) return;
  p.decided = true;

  TpcDecision dec;
  dec.txn = txn;
  dec.commit = commit;
  for (const auto node : p.participants) {
    if (node == host_.id()) {
      deliver_decision(dec);
    } else {
      link_.send_fifo(node, dec);
    }
  }
  if (p.done) p.done(txn, commit);
  coordinating_.erase(it);
}

void TwoPhaseCommit::deliver_decision(const TpcDecision& dec) {
  if (!resolved_.insert(dec.txn).second) return;  // duplicate decision
  in_doubt_.erase(dec.txn);
  if (outcome_) outcome_(dec.txn, dec.commit);
}

bool TwoPhaseCommit::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return link_.handle(from, msg);
}

}  // namespace repli::db

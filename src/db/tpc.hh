// Two-Phase Commit over reliable links.
//
// Deliberately *blocking*, as the paper stresses (Section 2.1): a
// participant that voted yes holds its locks until it learns the outcome;
// if the coordinator crashes in the window between collecting votes and
// disseminating the decision, participants stay blocked (we expose the
// blocked set so benches can measure the window). A participant that fails
// to vote within the coordinator's timeout causes a global abort.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gcs/fifo.hh"

namespace repli::db {

struct TpcPrepare : wire::MessageBase<TpcPrepare> {
  static constexpr const char* kTypeName = "db.TpcPrepare";
  std::string txn;
  std::string payload;  // protocol-specific (e.g. the writeset to install)
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(payload);
  }
};

struct TpcVote : wire::MessageBase<TpcVote> {
  static constexpr const char* kTypeName = "db.TpcVote";
  std::string txn;
  bool yes = false;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(yes);
  }
};

struct TpcDecision : wire::MessageBase<TpcDecision> {
  static constexpr const char* kTypeName = "db.TpcDecision";
  std::string txn;
  bool commit = false;
  template <class Ar>
  void fields(Ar& ar) {
    ar(txn);
    ar(commit);
  }
};

// How long the coordinator waits for votes before aborting.
inline constexpr sim::Time kTpcVoteTimeout = 200 * sim::kMsec;

/// Both roles in one component: any replica can coordinate a commit and
/// participate in commits coordinated by others.
class TwoPhaseCommit : public gcs::Component {
 public:
  /// `payload` is handed to the vote handler; return true to vote yes.
  using VoteFn = std::function<bool(const std::string& txn, const std::string& payload)>;
  using OutcomeFn = std::function<void(const std::string& txn, bool commit)>;

  TwoPhaseCommit(sim::Process& host, std::uint32_t channel);

  /// Participant-side handlers (a prepare is delivered to the coordinator's
  /// own handlers too, so state changes live in one place).
  void set_vote_handler(VoteFn fn) { vote_ = std::move(fn); }
  void set_outcome_handler(OutcomeFn fn) { outcome_ = std::move(fn); }

  /// Coordinator API: run 2PC for `txn` across `participants` (which may
  /// include the host itself). `done` fires with the global decision.
  void coordinate(const std::string& txn, const std::vector<sim::NodeId>& participants,
                  const std::string& payload, OutcomeFn done);

  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  struct InDoubt {
    sim::Time since = 0;
    sim::NodeId coordinator = sim::kNoNode;
  };
  /// Transactions this participant has voted yes on and not yet resolved —
  /// the blocking window of 2PC.
  const std::map<std::string, InDoubt>& in_doubt() const { return in_doubt_; }

 private:
  struct Pending {
    std::vector<sim::NodeId> participants;
    std::set<sim::NodeId> yes_votes;
    bool decided = false;
    OutcomeFn done;
  };

  /// Counts `from`'s vote if `txn` is still undecided here: a no aborts at
  /// once, the last yes commits.
  void count_vote(const std::string& txn, sim::NodeId from, bool yes);
  void decide(const std::string& txn, bool commit);
  void deliver_prepare(sim::NodeId coordinator, const TpcPrepare& prep);
  void deliver_decision(const TpcDecision& dec);

  sim::Process& host_;
  gcs::FifoChannel link_;
  VoteFn vote_;
  OutcomeFn outcome_;
  std::map<std::string, Pending> coordinating_;
  std::map<std::string, InDoubt> in_doubt_;  // yes-voted, outcome unknown
  std::set<std::string> resolved_;             // outcomes already applied here
};

}  // namespace repli::db

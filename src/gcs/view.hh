// Group membership with View Synchronous Broadcast (VSCAST).
//
// The group moves through a sequence of views v0, v1, ...; each view lists
// the members currently perceived correct. vscast() floods a message to the
// members of the current view; delivery happens in the view the message was
// sent in. When the failure detector suspects a view member, the flush
// coordinator (lowest trusted member) collects every member's set of
// messages delivered in the current view, re-disseminates the union, and
// installs the next view — so all survivors enter the new view having
// delivered exactly the same set of old-view messages (view synchrony).
//
// Crash of the coordinator mid-flush is healed by the next coordinator: a
// periodic check re-initiates the flush (with a higher view id) as long as
// the current view contains a suspected member. Joins are out of scope
// (crash-stop model; the paper's protocols only shrink groups).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gcs/fd.hh"
#include "gcs/group.hh"
#include "gcs/link.hh"

namespace repli::gcs {

struct View {
  std::uint64_t id = 0;
  std::vector<sim::NodeId> members;  // sorted

  bool contains(sim::NodeId n) const {
    return std::find(members.begin(), members.end(), n) != members.end();
  }
  /// The paper's primary convention: lowest member id of the view.
  sim::NodeId primary() const { return members.empty() ? sim::kNoNode : members.front(); }
};

struct VsData : wire::MessageBase<VsData> {
  static constexpr const char* kTypeName = "gcs.VsData";
  std::uint64_t view = 0;
  std::int32_t origin = 0;
  std::uint64_t seq = 0;
  std::string payload;
  template <class Ar>
  void fields(Ar& ar) {
    ar(view);
    ar(origin);
    ar(seq);
    ar(payload);
  }
};

struct VsFlushReq : wire::MessageBase<VsFlushReq> {
  static constexpr const char* kTypeName = "gcs.VsFlushReq";
  std::uint64_t target_view = 0;
  std::vector<std::int32_t> members;
  template <class Ar>
  void fields(Ar& ar) {
    ar(target_view);
    ar(members);
  }
};

struct VsFlushAck : wire::MessageBase<VsFlushAck> {
  static constexpr const char* kTypeName = "gcs.VsFlushAck";
  std::uint64_t target_view = 0;
  std::uint64_t current_view = 0;
  std::vector<VsData> delivered;  // everything delivered in current view
  template <class Ar>
  void fields(Ar& ar) {
    ar(target_view);
    ar(current_view);
    ar(delivered);
  }
};

struct VsInstall : wire::MessageBase<VsInstall> {
  static constexpr const char* kTypeName = "gcs.VsInstall";
  std::uint64_t view = 0;
  std::vector<std::int32_t> members;
  std::vector<VsData> stabilized;  // union of survivors' deliveries
  template <class Ar>
  void fields(Ar& ar) {
    ar(view);
    ar(members);
    ar(stabilized);
  }
};

// Period of the coordinator's self-healing membership poll.
inline constexpr sim::Time kViewFlushCheckInterval = 5 * sim::kMsec;

class ViewGroup : public Component {
 public:
  using DeliverFn = std::function<void(sim::NodeId origin, wire::MessagePtr msg)>;
  using ViewFn = std::function<void(const View& view)>;

  ViewGroup(sim::Process& host, Group initial, FailureDetector& fd, std::uint32_t channel);

  void start() override;
  bool handle(sim::NodeId from, const wire::MessagePtr& msg) override;

  /// View-synchronously broadcasts `msg` to the current view (including
  /// self-delivery). Messages sent during a flush are queued and re-sent in
  /// the next view.
  void vscast(const wire::Message& msg);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void on_view(ViewFn fn) { on_view_ = std::move(fn); }

  const View& view() const { return view_; }
  bool flushing() const { return blocked_; }

 private:
  using MsgId = std::pair<std::int32_t, std::uint64_t>;  // (origin, seq)

  void accept(const VsData& data);
  void relay(const VsData& data);
  void check_membership();
  void initiate_flush();
  void maybe_complete_flush();
  void install(const VsInstall& inst);

  sim::Process& host_;
  FailureDetector& fd_;
  ReliableLink link_;
  DeliverFn deliver_;
  ViewFn on_view_;

  View view_;
  std::uint64_t next_seq_ = 1;
  // Per-origin FIFO delivery within the view (the paper's primary-backup
  // technique depends on FIFO from the primary, §3.3).
  std::map<std::int32_t, std::uint64_t> next_in_;            // origin -> next seq
  std::map<std::int32_t, std::map<std::uint64_t, VsData>> reorder_;
  std::set<MsgId> delivered_ids_;
  std::vector<VsData> delivered_log_;            // current view, for flush
  std::map<std::uint64_t, std::vector<VsData>> future_;  // msgs from views ahead of us

  bool blocked_ = false;
  std::vector<std::string> queued_;  // payloads deferred during flush

  // Coordinator-side flush state.
  std::uint64_t flush_target_ = 0;  // 0 = no flush in progress here
  std::vector<sim::NodeId> flush_members_;
  std::map<sim::NodeId, VsFlushAck> flush_acks_;
  VsInstall last_install_;  // replayed to coordinators that missed it
};

}  // namespace repli::gcs

#include "gcs/view.hh"

#include <algorithm>

#include "util/assert.hh"
#include "util/log.hh"

namespace repli::gcs {

ViewGroup::ViewGroup(sim::Process& host, Group initial, FailureDetector& fd,
                     std::uint32_t channel)
    : host_(host), fd_(fd), link_(host, channel) {
  view_.id = 0;
  view_.members = initial.members();
  util::ensure(view_.contains(host_.id()), "ViewGroup: host not in initial membership");

  link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
    if (const auto data = wire::message_cast<VsData>(msg)) {
      accept(*data);
      return;
    }
    if (const auto req = wire::message_cast<VsFlushReq>(msg)) {
      if (req->target_view <= view_.id) {
        // Stale attempt from a coordinator behind us (it missed a previous
        // install): help it catch up instead of leaving it stalled.
        if (last_install_.view >= req->target_view) {
          link_.send_reliable(from, last_install_);
        }
        return;
      }
      blocked_ = true;
      VsFlushAck ack;
      ack.target_view = req->target_view;
      ack.current_view = view_.id;
      ack.delivered = delivered_log_;
      link_.send_reliable(from, ack);
      return;
    }
    if (const auto ack = wire::message_cast<VsFlushAck>(msg)) {
      if (ack->target_view != flush_target_) return;  // a flush we are not running
      flush_acks_.emplace(from, *ack);
      maybe_complete_flush();
      return;
    }
    if (const auto inst = wire::message_cast<VsInstall>(msg)) {
      install(*inst);
      return;
    }
  });
}

void ViewGroup::start() {
  check_membership();
  if (on_view_) on_view_(view_);
}

void ViewGroup::vscast(const wire::Message& msg) {
  const std::string payload = wire::to_blob(msg);
  if (blocked_) {
    queued_.push_back(payload);
    return;
  }
  VsData data;
  data.view = view_.id;
  data.origin = host_.id();
  data.seq = next_seq_++;
  data.payload = payload;
  accept(data);  // self-delivery + relay to the rest of the view
}

void ViewGroup::accept(const VsData& data) {
  if (data.view < view_.id) return;  // old-view message: dropped (see header)
  if (data.view > view_.id) {
    future_[data.view].push_back(data);
    return;
  }
  // Once we have acked a flush our delivered-log snapshot is frozen:
  // delivering more current-view messages here would break view synchrony
  // (they would be missing from the stabilized union). If any survivor
  // delivered this message before blocking, the install re-delivers it.
  if (blocked_) return;
  const MsgId id{data.origin, data.seq};
  if (delivered_ids_.contains(id)) return;
  // FIFO per origin: stash and deliver in sequence order.
  auto& next = next_in_.try_emplace(data.origin, 1).first->second;
  if (data.seq < next) return;  // stale duplicate
  reorder_[data.origin].emplace(data.seq, data);
  auto& pending = reorder_[data.origin];
  while (!pending.empty() && pending.begin()->first == next && !blocked_) {
    const VsData ready = pending.begin()->second;
    pending.erase(pending.begin());
    ++next;
    delivered_ids_.insert({ready.origin, ready.seq});
    delivered_log_.push_back(ready);
    relay(ready);
    if (deliver_) deliver_(ready.origin, wire::from_blob(ready.payload));
  }
}

void ViewGroup::relay(const VsData& data) {
  const wire::Blob blob = wire::share_blob(data);  // one encoding for every member
  for (const auto m : view_.members) {
    if (m == host_.id() || m == data.origin) continue;
    link_.send_blob(m, blob);
  }
}

void ViewGroup::check_membership() {
  // Self-healing flush initiation: whoever is the lowest trusted member of
  // the current view keeps (re)starting the flush while a suspected member
  // remains in the view. This survives coordinator crashes mid-flush.
  // The poll is a background event: it creates work only when a suspicion
  // it observes calls for a flush.
  host_.set_timer(kViewFlushCheckInterval, [this] { check_membership(); },
                  sim::EventClass::Background);

  bool any_suspected = false;
  sim::NodeId lowest_trusted = sim::kNoNode;
  for (const auto m : view_.members) {
    if (m == host_.id() || !fd_.suspects(m)) {
      if (lowest_trusted == sim::kNoNode) lowest_trusted = m;
    } else {
      any_suspected = true;
    }
  }
  if (!any_suspected || lowest_trusted != host_.id()) return;
  if (flush_target_ != 0) return;  // flush already in progress here
  initiate_flush();
}

void ViewGroup::initiate_flush() {
  flush_target_ = view_.id + 1;
  flush_members_.clear();
  for (const auto m : view_.members) {
    if (m == host_.id() || !fd_.suspects(m)) flush_members_.push_back(m);
  }
  flush_acks_.clear();
  blocked_ = true;
  util::log_debug("vs ", host_.id(), ": flushing towards view ", flush_target_);

  VsFlushReq req;
  req.target_view = flush_target_;
  req.members.assign(flush_members_.begin(), flush_members_.end());
  const wire::Blob blob = wire::share_blob(req);
  for (const auto m : flush_members_) {
    if (m == host_.id()) {
      VsFlushAck mine;
      mine.target_view = flush_target_;
      mine.current_view = view_.id;
      mine.delivered = delivered_log_;
      flush_acks_.emplace(host_.id(), std::move(mine));
    } else {
      link_.send_blob(m, blob);
    }
  }
  maybe_complete_flush();
}

void ViewGroup::maybe_complete_flush() {
  if (flush_target_ == 0) return;
  // A member that crashed during the flush is dropped from the target view
  // on the next self-healing pass; here we wait for everyone proposed.
  for (const auto m : flush_members_) {
    if (!flush_acks_.contains(m)) {
      // If a proposed member is now suspected, restart with a smaller view.
      if (fd_.suspects(m)) {
        flush_target_ = 0;
        initiate_flush();
      }
      return;
    }
  }

  VsInstall inst;
  inst.view = flush_target_;
  inst.members.assign(flush_members_.begin(), flush_members_.end());
  std::set<MsgId> seen;
  for (const auto& [node, ack] : flush_acks_) {
    for (const auto& data : ack.delivered) {
      if (seen.insert({data.origin, data.seq}).second) inst.stabilized.push_back(data);
    }
  }
  std::sort(inst.stabilized.begin(), inst.stabilized.end(),
            [](const VsData& a, const VsData& b) {
              return std::tie(a.origin, a.seq) < std::tie(b.origin, b.seq);
            });
  const wire::Blob blob = wire::share_blob(inst);
  for (const auto m : flush_members_) {
    if (m != host_.id()) link_.send_blob(m, blob);
  }
  install(inst);
}

void ViewGroup::install(const VsInstall& inst) {
  if (inst.view <= view_.id) return;  // stale
  // View synchrony: deliver every stabilized old-view message we have not
  // delivered ourselves before entering the new view.
  for (const auto& data : inst.stabilized) {
    const MsgId id{data.origin, data.seq};
    if (!delivered_ids_.insert(id).second) continue;
    if (deliver_) deliver_(data.origin, wire::from_blob(data.payload));
  }

  view_.id = inst.view;
  view_.members.assign(inst.members.begin(), inst.members.end());
  std::sort(view_.members.begin(), view_.members.end());
  last_install_ = inst;
  next_seq_ = 1;
  delivered_ids_.clear();
  delivered_log_.clear();
  next_in_.clear();
  reorder_.clear();
  blocked_ = false;
  flush_target_ = 0;
  flush_acks_.clear();
  util::log_debug("vs ", host_.id(), ": installed view ", view_.id);
  if (on_view_) on_view_(view_);

  // Messages that raced ahead of our install.
  if (const auto it = future_.find(view_.id); it != future_.end()) {
    const auto msgs = it->second;
    future_.erase(it);
    for (const auto& data : msgs) accept(data);
  }
  future_.erase(future_.begin(), future_.lower_bound(view_.id));

  // Re-send what was queued during the flush.
  const auto queued = std::move(queued_);
  queued_.clear();
  for (const auto& payload : queued) {
    VsData data;
    data.view = view_.id;
    data.origin = host_.id();
    data.seq = next_seq_++;
    data.payload = payload;
    accept(data);
  }
}

bool ViewGroup::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return link_.handle(from, msg);
}

}  // namespace repli::gcs

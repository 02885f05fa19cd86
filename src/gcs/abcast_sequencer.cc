#include "gcs/abcast_sequencer.hh"

#include <algorithm>
#include <optional>

#include "obs/profile.hh"
#include "sim/simulator.hh"
#include "util/log.hh"

namespace repli::gcs {

SequencerAbcast::SequencerAbcast(sim::Process& host, Group group, FailureDetector& fd,
                                 std::uint32_t channel, sim::BatchPolicy batch)
    : AtomicBroadcast(host, batch),
      host_(host),
      group_(std::move(group)),
      fd_(fd),
      flood_(host, group_, channel, batch),
      order_batcher_(batch, host,
                     [this](std::vector<AbOrder> batch) { flush_orders(std::move(batch)); }) {
  flood_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) { on_flood(std::move(msg)); });
  fd_.on_suspect([this](sim::NodeId /*who*/) {
    // Wait out in-flight orders from the previous sequencer before taking
    // over; ordering decisions received meanwhile are adopted normally.
    // (Also guards against transient partitions looking like crashes: if
    // trust returns within the grace period, no takeover happens at all.)
    sequencing_allowed_at_ =
        std::max(sequencing_allowed_at_, host_.now() + kSequencerTakeoverDelay);
    host_.set_timer(kSequencerTakeoverDelay, [this] { sequence_backlog(); });
  });
}

bool SequencerAbcast::may_sequence() const {
  return current_sequencer() == host_.id() && host_.now() >= sequencing_allowed_at_;
}

sim::NodeId SequencerAbcast::current_sequencer() const { return fd_.lowest_trusted(); }

std::size_t SequencerAbcast::held() const {
  std::size_t n = 0;
  for (const auto& log : table_) n += log.size();
  return n;
}

bool SequencerAbcast::delivered(const MsgId& id) const {
  if (static_cast<std::size_t>(id.first) >= table_.size()) return false;
  const auto& log = table_[static_cast<std::size_t>(id.first)];
  if (id.second < log.base()) return true;
  return log.contains(id.second) && log[id.second].delivered;
}

bool SequencerAbcast::ordered(const MsgId& id) const {
  if (delivered(id)) return true;
  if (static_cast<std::size_t>(id.first) >= table_.size()) return false;
  const auto& log = table_[static_cast<std::size_t>(id.first)];
  return log.contains(id.second) && log[id.second].gseq != 0;
}

SequencerAbcast::Entry& SequencerAbcast::entry(const MsgId& id) {
  const auto origin = static_cast<std::size_t>(id.first);
  if (table_.size() <= origin) table_.resize(origin + 1, util::SeqRing<Entry>(1));
  return table_[origin].extend_to(id.second);
}

void SequencerAbcast::mark_delivered(const MsgId& id) {
  auto& log = table_[static_cast<std::size_t>(id.first)];
  Entry& e = log[id.second];
  e = Entry{};
  e.delivered = true;
  while (!log.empty() && log.front().delivered) log.pop_front();
}

void SequencerAbcast::abcast_now(const wire::Message& msg) {
  AbData& data = outgoing_;
  data.origin = host_.id();
  data.lseq = next_lseq_++;
  wire::assign_blob(data.payload, msg);
  flood_.rbcast(data);
}

void SequencerAbcast::on_flood(wire::MessagePtr msg) {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  if (const auto data = wire::message_cast<AbData>(msg)) {
    const MsgId id{data->origin, data->lseq};
    Entry* e = delivered(id) ? nullptr : &entry(id);
    if (e != nullptr && e->data == nullptr) {  // the payload's first arrival
      auto& tracer = host_.sim().tracer();
      // Remember the causal trace the payload arrived under: try_deliver
      // drains in gseq order, so this payload may be delivered later, from
      // an event belonging to a different broadcast's trace.
      e->trace = tracer.context().trace_id;
      // Payload seen; the span stays open until its global order is known
      // and it is delivered — the width is the ordering latency.
      e->span = tracer.begin(host_.id(), "gcs/abcast.order", host_.now());
      tracer.attr(e->span, "origin", std::to_string(id.first));
      tracer.attr(e->span, "lseq", std::to_string(id.second));
      e->data = data;
      // Opt-delivery may broadcast, which can move `e`: it is not used after.
      if (opt_deliver_) {
        unpack_into(data->origin, wire::from_blob(data->payload), opt_deliver_);
      }
    }
    if (may_sequence() && !ordered(id)) assign(id);
    try_deliver();
    return;
  }
  if (const auto order = wire::message_cast<AbOrder>(msg)) {
    apply_order(*order);
    return;
  }
  if (const auto batch = wire::message_cast<AbOrderBatch>(msg)) {
    for (const auto& order : batch->orders) apply_order(order);
    return;
  }
}

void SequencerAbcast::apply_order(const AbOrder& order) {
  const MsgId id{order.origin, order.lseq};
  if (delivered(id)) return;  // late duplicate order (failover race)
  Entry& e = entry(id);
  e.assign_pending = false;
  if (e.gseq != 0) return;  // late duplicate order (failover race)
  if (order.gseq < order_.base() ||
      (order_.contains(order.gseq) && order_[order.gseq].second != 0)) {
    // gseq collision from a failover race: the first-received order wins;
    // if we are the sequencer, give the losing message a fresh slot.
    if (may_sequence()) assign(id);
    return;
  }
  e.gseq = order.gseq;
  order_.extend_to(order.gseq) = id;
  next_gseq_ = std::max(next_gseq_, order.gseq + 1);
  try_deliver();
}

void SequencerAbcast::assign(const MsgId& id) {
  // A buffered-but-unflooded assignment has no gseq in its entry yet;
  // assigning the id a second slot would leave a gseq hole that stalls
  // delivery.
  Entry& e = entry(id);
  if (e.assign_pending) return;
  AbOrder order;
  order.origin = id.first;
  order.lseq = id.second;
  order.gseq = next_gseq_++;
  util::log_debug("abcast-seq ", host_.id(), ": ordering (", id.first, ",", id.second,
                  ") as gseq ", order.gseq);
  if (!order_batcher_.policy().batching()) {
    flood_.rbcast(order);  // delivers to ourselves as well, updating state
    return;
  }
  // Batched ordering: gather assignments for a flush window and flood them
  // as one AbOrderBatch — one ordering flood amortized over the window.
  e.assign_pending = true;
  order_batcher_.add(order);
}

void SequencerAbcast::flush_orders(std::vector<AbOrder> orders) {
  host_.sim().metrics().histogram("gcs.abcast.order_batch_occupancy")
      .observe(static_cast<double>(orders.size()));
  if (orders.size() == 1) {
    flood_.rbcast(orders.front());
    return;
  }
  AbOrderBatch batch;
  batch.orders = std::move(orders);
  flood_.rbcast(batch);
}

void SequencerAbcast::sequence_backlog() {
  if (!may_sequence()) return;
  // New sequencer: order every known-but-unordered message, by (origin, lseq).
  std::vector<MsgId> backlog;
  for (std::size_t origin = 0; origin < table_.size(); ++origin) {
    const auto& log = table_[origin];
    for (std::uint64_t lseq = log.base(); lseq < log.end(); ++lseq) {
      const Entry& e = log[lseq];
      if (e.data != nullptr && e.gseq == 0) {
        backlog.emplace_back(static_cast<std::int32_t>(origin), lseq);
      }
    }
  }
  for (const auto& id : backlog) assign(id);
}

void SequencerAbcast::try_deliver() {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  while (!order_.empty()) {
    const MsgId id = order_.front();
    if (id.second == 0) return;  // the next gseq's order is still in flight
    Entry& e = entry(id);
    if (e.data == nullptr) return;  // order known, payload still in flight
    const std::uint64_t gseq = order_.base();
    const std::shared_ptr<const AbData> data = std::move(e.data);
    const std::uint64_t trace = e.trace;
    const obs::SpanId span = e.span;
    order_.pop_front();
    mark_delivered(id);
    // Deliver inside the payload's own causal trace — not whichever
    // broadcast's event happened to unblock the queue.
    std::optional<obs::ContextScope> scope;
    if (trace != 0) scope.emplace(host_.sim().tracer(), obs::TraceContext{trace, obs::kNoSpan, 0});
    auto& tracer = host_.sim().tracer();
    tracer.attr(span, "gseq", std::to_string(gseq));
    tracer.end(span, host_.now());
    const obs::Span* s = tracer.find(span);
    host_.sim().metrics().histogram("gcs.abcast.order_latency_us")
        .observe(static_cast<double>(s->end - s->start));
    host_.sim().metrics().incr("gcs.abcast.delivered");
    deliver_up(id.first, wire::from_blob(data->payload));
  }
}

bool SequencerAbcast::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return flood_.handle(from, msg);
}

}  // namespace repli::gcs

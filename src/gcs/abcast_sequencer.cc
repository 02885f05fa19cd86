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

void SequencerAbcast::abcast_now(const wire::Message& msg) {
  AbData data;
  data.origin = host_.id();
  data.lseq = next_lseq_++;
  data.payload = wire::to_blob(msg);
  flood_.rbcast(data);
}

void SequencerAbcast::on_flood(wire::MessagePtr msg) {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  if (const auto data = wire::message_cast<AbData>(msg)) {
    const MsgId id{data->origin, data->lseq};
    const bool fresh = payloads_.emplace(id, data->payload).second;
    if (fresh) {
      auto& tracer = host_.sim().tracer();
      // Remember the causal trace the payload arrived under: try_deliver
      // drains in gseq order, so this payload may be delivered later, from
      // an event belonging to a different broadcast's trace.
      trace_of_[id] = tracer.context().trace_id;
      // Payload seen; the span stays open until its global order is known
      // and it is delivered — the width is the ordering latency.
      const obs::SpanId span = tracer.begin(host_.id(), "gcs/abcast.order", host_.now());
      tracer.attr(span, "origin", std::to_string(id.first));
      tracer.attr(span, "lseq", std::to_string(id.second));
      order_spans_[id] = span;
      if (opt_deliver_) {
        unpack_into(data->origin, wire::from_blob(data->payload), opt_deliver_);
      }
    }
    if (may_sequence() && !ordered_.contains(id)) assign(id);
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
  assign_pending_.erase(id);
  if (ordered_.contains(id)) return;  // late duplicate order (failover race)
  if (order_.contains(order.gseq)) {
    // gseq collision from a failover race: the first-received order wins;
    // if we are the sequencer, give the losing message a fresh slot.
    if (may_sequence()) assign(id);
    return;
  }
  ordered_.insert(id);
  order_.emplace(order.gseq, id);
  next_gseq_ = std::max(next_gseq_, order.gseq + 1);
  try_deliver();
}

void SequencerAbcast::assign(const MsgId& id) {
  // A buffered-but-unflooded assignment is not in ordered_ yet; assigning
  // the id a second slot would leave a gseq hole that stalls delivery.
  if (assign_pending_.contains(id)) return;
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
  assign_pending_.insert(id);
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
  // New sequencer: order every known-but-unordered message deterministically.
  std::vector<MsgId> backlog;
  for (const auto& [id, payload] : payloads_) {
    if (!ordered_.contains(id)) backlog.push_back(id);
  }
  std::sort(backlog.begin(), backlog.end());
  for (const auto& id : backlog) assign(id);
}

void SequencerAbcast::try_deliver() {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  for (;;) {
    const auto oit = order_.find(next_deliver_);
    if (oit == order_.end()) return;
    const auto pit = payloads_.find(oit->second);
    if (pit == payloads_.end()) return;  // order known, payload still in flight
    const std::string payload = pit->second;
    const MsgId id = oit->second;
    const std::uint64_t gseq = next_deliver_;
    ++next_deliver_;
    // Deliver inside the payload's own causal trace — not whichever
    // broadcast's event happened to unblock the queue.
    std::optional<obs::ContextScope> scope;
    if (const auto tit = trace_of_.find(id); tit != trace_of_.end()) {
      if (tit->second != 0) {
        scope.emplace(host_.sim().tracer(), obs::TraceContext{tit->second, obs::kNoSpan, 0});
      }
      trace_of_.erase(tit);
    }
    if (const auto sit = order_spans_.find(id); sit != order_spans_.end()) {
      auto& tracer = host_.sim().tracer();
      tracer.attr(sit->second, "gseq", std::to_string(gseq));
      tracer.end(sit->second, host_.now());
      const obs::Span* span = tracer.find(sit->second);
      host_.sim().metrics().histogram("gcs.abcast.order_latency_us")
          .observe(static_cast<double>(span->end - span->start));
      order_spans_.erase(sit);
    }
    host_.sim().metrics().incr("gcs.abcast.delivered");
    deliver_up(id.first, wire::from_blob(payload));
  }
}

bool SequencerAbcast::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return flood_.handle(from, msg);
}

}  // namespace repli::gcs

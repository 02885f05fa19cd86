#include "sim/network.hh"

#include <algorithm>
#include <utility>

#include "obs/context.hh"
#include "obs/profile.hh"
#include "sim/process.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::sim {
namespace {

/// Failure-detector heartbeats are liveness traffic: exempt from frame
/// coalescing (detection latency and the heartbeat-exclusion accounting
/// stay exact) and delivered as background events.
bool is_liveness_traffic(std::string_view type) { return type == "gcs.Heartbeat"; }

}  // namespace

Network::Network(Simulator& sim, NetworkConfig config) : sim_(sim), config_(config) {}

void Network::set_partition(std::function<bool(NodeId, NodeId)> blocked) {
  // Replacing the predicate mid-run is a clean swap: deliveries consult
  // blocked_ at delivery time, so in-flight messages obey the *new*
  // predicate, and buffered coalescing frames were already filtered at
  // send time. Exploration swaps partitions constantly; count the swaps so
  // a runaway fault plan is visible in the metrics.
  const bool replacing = static_cast<bool>(blocked_);
  blocked_ = std::move(blocked);
  sim_.metrics().incr("net.partition_swaps");
  if (replacing) {
    util::log_debug("set_partition: replaced active predicate (swap, in-flight "
                    "messages follow the new one)");
  }
}

Time Network::delivery_delay(NodeId from, NodeId to, std::size_t bytes) {
  if (from == to) return 0;
  Time delay = config_.base_latency;
  delay += static_cast<Time>(sim_.rng().exponential(static_cast<double>(config_.jitter_mean)));
  if (config_.bytes_per_usec > 0.0) {
    delay += static_cast<Time>(static_cast<double>(bytes) / config_.bytes_per_usec);
  }
  // Exploration jitter: bounded extra delay from the schedule-perturbation
  // stream (0, and no stream consumption, when perturbation is off).
  delay += sim_.perturb_extra_delay();
  return delay;
}

void Network::send(NodeId from, NodeId to, wire::MessagePtr msg) {
  obs::ProfScope prof(obs::CostCenter::NetDelivery);
  util::ensure(msg != nullptr, "Network::send: null message");
  const bool cross_link = from != to;

  // Stamp the causal context onto the wire frame: trace id from the ambient
  // context, parent span = the innermost span open on the sender, Lamport
  // clock ticked per cross-node send.
  wire::WireContext wctx;
  const obs::TraceContext& cur = sim_.tracer().context();
  wctx.trace_id = cur.trace_id;
  const obs::SpanId src_span = sim_.tracer().innermost_open(from);
  wctx.parent_span = src_span != obs::kNoSpan ? src_span : cur.parent_span;
  wctx.lamport = cross_link ? sim_.lamports().tick(from) : sim_.lamports().value(from);

  // Encode into the reused scratch writer: the bytes are only needed
  // synchronously (size accounting + the immediate decode below), so the
  // buffer's capacity is recycled across sends.
  scratch_.clear();
  wire::encode_framed_into(scratch_, *msg, wctx);
  const std::span<const std::uint8_t> bytes = scratch_.span();
  const std::string_view type = msg->type_name();
  bytes_sent_ += static_cast<std::int64_t>(bytes.size());
  TypeTally& tally = tally_for(*msg, type);
  ++tally.count;
  tally.bytes += static_cast<std::int64_t>(bytes.size());

  MessageEvent ev;
  ev.from = from;
  ev.to = to;
  ev.type = type;
  ev.sent = sim_.now();
  ev.bytes = bytes.size();

  // Loss and partitions apply per logical message at send time, coalesced
  // or not (ARQ above retransmits individually).
  if (cross_link && blocked_ && blocked_(from, to)) {
    ++messages_sent_;
    drop(ev, "partition");
    return;
  }
  if (cross_link && sim_.rng().bernoulli(config_.drop_probability)) {
    ++messages_sent_;
    drop(ev, "loss");
    return;
  }

  // Frame coalescing: buffer eligible cross-link messages per (from, to)
  // and ship them as one physical frame. Liveness traffic is exempt (see
  // is_liveness_traffic), self-sends are already free.
  const bool liveness = is_liveness_traffic(type);
  if (config_.coalesce_window > 0 && cross_link && !liveness) {
    const BatchPolicy policy{kCoalesceMaxMsgs, config_.coalesce_window};
    frames_
        .try_emplace(std::pair{from, to}, policy, sim_,
                     [this, from, to](std::vector<FrameEntry> entries) {
                       flush_frame(from, to, std::move(entries));
                     })
        .first->second.add(FrameEntry{.wctx = wctx,
                                      .src_span = src_span,
                                      .msg = wire::decode_framed(bytes),
                                      .type = ev.type,
                                      .bytes = bytes.size(),
                                      .enqueued = sim_.now()});
    return;
  }

  ++messages_sent_;

  const Time delay = delivery_delay(from, to, bytes.size());

  // Deliver a decoded copy so receivers can never alias sender state.
  wire::MessagePtr delivered = wire::decode_framed(bytes);

  ev.delivered = sim_.now() + delay;

  // One record per message: a cross-node delivery is a flow (the message
  // edge; the receiver-side Lamport value is filled in when the delivery
  // event runs), a self-send goes to the trace's message log.
  std::uint64_t flow_id = 0;
  if (cross_link) {
    obs::Flow flow;
    flow.trace = wctx.trace_id;
    flow.src_span = src_span;
    flow.from = from;
    flow.to = to;
    flow.sent = ev.sent;
    flow.recv = ev.delivered;
    flow.lamport_send = wctx.lamport;
    flow.bytes = ev.bytes;
    flow.type = ev.type;
    flow_id = sim_.tracer().flow(std::move(flow));
  } else {
    sim_.trace().message(ev);
  }

  ++inflight_at(from, to);
  ++inflight_total_;
  auto deliver = [this, from, to, wctx, flow_id,
                  delivered = std::move(delivered)] {
    obs::ProfScope dprof(obs::CostCenter::NetDelivery);
    --inflight_at(from, to);
    --inflight_total_;
    if (sim_.crashed(to)) return;
    if (from != to && blocked_ && blocked_(from, to)) return;  // partition cut in-flight
    if (from != to) {
      const std::int64_t merged = sim_.lamports().merge(to, wctx.lamport);
      if (flow_id != 0) sim_.tracer().flow_recv_lamport(flow_id, merged);
      obs::ContextScope scope(sim_.tracer(), obs::TraceContext{
          wctx.trace_id, static_cast<obs::SpanId>(wctx.parent_span), merged});
      sim_.process(to).on_message(from, delivered);
    } else {
      sim_.process(to).on_message(from, delivered);
    }
  };
  // The per-delivery event is the hottest schedule site in the system; its
  // captures must stay within SmallFn's inline buffer or every message
  // costs a heap allocation again.
  static_assert(sizeof(deliver) <= util::SmallFn::kInlineBytes);
  sim_.schedule_after(delay, std::move(deliver), Simulator::kNoOwner,
                      liveness ? EventClass::Background : EventClass::Foreground);
}

void Network::flush_frame(NodeId from, NodeId to, std::vector<FrameEntry> entries) {
  obs::ProfScope prof(obs::CostCenter::NetDelivery);
  // One physical frame for the whole batch.
  ++messages_sent_;
  std::size_t frame_bytes = 0;
  for (const FrameEntry& e : entries) frame_bytes += e.bytes;
  sim_.metrics().histogram("net.coalesce.occupancy")
      .observe(static_cast<double>(entries.size()));
  sim_.metrics().incr("net.coalesce.frames");
  sim_.metrics().incr("net.coalesce.msgs", static_cast<std::int64_t>(entries.size()));

  const Time delay = delivery_delay(from, to, frame_bytes);
  const Time arrival = sim_.now() + delay;

  for (FrameEntry& e : entries) {
    obs::Flow flow;
    flow.trace = e.wctx.trace_id;
    flow.src_span = e.src_span;
    flow.from = from;
    flow.to = to;
    flow.sent = e.enqueued;
    flow.recv = arrival;
    flow.lamport_send = e.wctx.lamport;
    flow.bytes = e.bytes;
    flow.type = e.type;
    e.flow_id = sim_.tracer().flow(std::move(flow));
  }

  ++inflight_at(from, to);
  ++inflight_total_;
  sim_.schedule_after(delay, [this, from, to, entries = std::move(entries)] {
    obs::ProfScope dprof(obs::CostCenter::NetDelivery);
    --inflight_at(from, to);
    --inflight_total_;
    if (sim_.crashed(to)) return;
    if (blocked_ && blocked_(from, to)) return;  // partition cut in-flight
    for (const FrameEntry& e : entries) {
      const std::int64_t merged = sim_.lamports().merge(to, e.wctx.lamport);
      if (e.flow_id != 0) sim_.tracer().flow_recv_lamport(e.flow_id, merged);
      obs::ContextScope scope(sim_.tracer(), obs::TraceContext{
          e.wctx.trace_id, static_cast<obs::SpanId>(e.wctx.parent_span), merged});
      sim_.process(to).on_message(from, e.msg);
    }
  });
}

void Network::drop(MessageEvent& ev, const char* reason) {
  ev.dropped = true;
  sim_.trace().message(ev);
  sim_.metrics().incr("net.dropped");
  sim_.metrics().counter("net.dropped_by_reason", obs::label("reason", reason)).incr();
  sim_.tracer().instant(ev.from, "net/drop", ev.sent, "",
                        obs::Attrs{{"type", std::string(ev.type)},
                                   {"to", std::to_string(ev.to)},
                                   {"reason", reason}});
  util::log_info("drop (", reason, "): ", ev.type, " ", ev.from, " -> ", ev.to);
}

std::int64_t& Network::inflight_at(NodeId from, NodeId to) {
  const auto need = static_cast<std::size_t>(std::max(from, to)) + 1;
  if (need > inflight_nodes_) {
    std::vector<std::int64_t> grown(need * need, 0);
    for (std::size_t f = 0; f < inflight_nodes_; ++f) {
      std::copy_n(inflight_.begin() + static_cast<std::ptrdiff_t>(f * inflight_nodes_),
                  inflight_nodes_, grown.begin() + static_cast<std::ptrdiff_t>(f * need));
    }
    inflight_.swap(grown);
    inflight_nodes_ = need;
  }
  return inflight_[static_cast<std::size_t>(from) * inflight_nodes_ + static_cast<std::size_t>(to)];
}

std::int64_t Network::inflight_max_link() const {
  std::int64_t max = 0;
  for (const std::int64_t n : inflight_) max = std::max(max, n);
  return max;
}

Network::TypeTally& Network::tally_for(const wire::Message& msg, std::string_view type) {
  const wire::TypeId id = msg.type_id();
  for (TypeTally& t : per_type_) {
    if (t.id == id) return t;
  }
  return per_type_.emplace_back(TypeTally{.id = id, .name = type});
}

const Network::TypeTally* Network::find_tally(std::string_view type) const {
  for (const TypeTally& t : per_type_) {
    if (t.name == type) return &t;
  }
  return nullptr;
}

std::map<std::string_view, std::int64_t> Network::per_type_count() const {
  std::map<std::string_view, std::int64_t> out;
  for (const TypeTally& t : per_type_) out.emplace(t.name, t.count);
  return out;
}

std::map<std::string_view, std::int64_t> Network::per_type_bytes() const {
  std::map<std::string_view, std::int64_t> out;
  for (const TypeTally& t : per_type_) out.emplace(t.name, t.bytes);
  return out;
}

std::int64_t Network::messages_excluding(std::string_view type) const {
  const TypeTally* t = find_tally(type);
  return messages_sent_ - (t == nullptr ? 0 : t->count);
}

std::int64_t Network::bytes_excluding(std::string_view type) const {
  const TypeTally* t = find_tally(type);
  return bytes_sent_ - (t == nullptr ? 0 : t->bytes);
}

}  // namespace repli::sim

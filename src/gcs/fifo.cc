#include "gcs/fifo.hh"

#include <optional>

#include "obs/context.hh"
#include "sim/simulator.hh"

namespace repli::gcs {

FifoChannel::FifoChannel(sim::Process& host, std::uint32_t channel, sim::BatchPolicy pack)
    : host_(host), link_(host, channel, pack) {
  link_.set_deliver([this](sim::NodeId from, wire::MessagePtr msg, std::string_view) {
    const auto data = wire::message_cast<FifoData>(msg);
    if (!data) return;
    Incoming& in = in_[from];
    if (data->seq < in.next) return;  // stale duplicate
    in.buffer.emplace(data->seq,
                      Stashed{data->payload, host_.sim().tracer().context().trace_id});
    pump(from);
  });
}

void FifoChannel::send_fifo(sim::NodeId to, const wire::Message& msg) {
  FifoData data;
  data.channel = 0;  // stream identity is the (sender, link-channel) pair
  data.seq = ++next_out_[to];
  data.payload = wire::to_blob(msg);
  link_.send_reliable(to, data);
}

void FifoChannel::pump(sim::NodeId from) {
  Incoming& in = in_[from];
  for (auto it = in.buffer.begin(); it != in.buffer.end() && it->first == in.next;) {
    const Stashed stashed = std::move(it->second);
    it = in.buffer.erase(it);
    ++in.next;
    // A head-of-line-blocked message is released by a *later* message's
    // event; deliver it inside its own causal trace, not the unblocker's.
    std::optional<obs::ContextScope> scope;
    obs::Tracer& tracer = host_.sim().tracer();
    if (stashed.trace != 0 && stashed.trace != tracer.context().trace_id) {
      scope.emplace(tracer, obs::TraceContext{stashed.trace, obs::kNoSpan, 0});
    }
    if (deliver_) deliver_(from, wire::from_blob(stashed.payload));
  }
}

bool FifoChannel::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return link_.handle(from, msg);
}

}  // namespace repli::gcs

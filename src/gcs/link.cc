#include "gcs/link.hh"

#include <bit>

#include "obs/profile.hh"
#include "sim/simulator.hh"
#include "util/log.hh"

namespace repli::gcs {

ReliableLink::ReliableLink(sim::Process& host, std::uint32_t channel, sim::BatchPolicy pack)
    : host_(host), channel_(channel), pack_policy_(pack) {}

void ReliableLink::send_reliable(sim::NodeId to, const wire::Message& msg) {
  send_blob(to, wire::share_blob(msg));
}

void ReliableLink::send_blob(sim::NodeId to, wire::Blob payload) {
  obs::ProfScope prof(obs::CostCenter::GcsLink);
  if (!pack_policy_.batching()) {
    send_now(to, std::move(payload));
    return;
  }
  // Packing: gather payloads per destination, then ship them as one
  // LinkPack (one seq / ack / retransmission unit).
  pack_
      .try_emplace(to, pack_policy_, host_,
                   [this, to](std::vector<wire::Blob> p) { flush_pack(to, std::move(p)); })
      .first->second.add(std::move(payload));
}

void ReliableLink::flush_pack(sim::NodeId to, std::vector<wire::Blob> payloads) {
  host_.sim().metrics().histogram("gcs.link.pack_occupancy")
      .observe(static_cast<double>(payloads.size()));
  if (payloads.size() == 1) {
    // A lone payload skips the pack wrapper: same bytes as an unpacked send.
    send_now(to, std::move(payloads.front()));
    return;
  }
  LinkPack pack;
  pack.payloads = std::move(payloads);
  send_now(to, wire::share_blob(pack));
}

void ReliableLink::send_now(sim::NodeId to, wire::Blob payload) {
  const std::uint64_t seq = outbox_.end();
  const Pending& p = outbox_.push_back(Pending{to, std::move(payload), 0});
  ++unacked_;
  transmit(seq, p);
  arm_timer();
}

void ReliableLink::transmit(std::uint64_t seq, const Pending& p) {
  // Pooled: the recycled object's payload string keeps its capacity, so a
  // steady-state (re)transmit allocates nothing.
  auto data = wire::MessagePool<LinkData>::acquire();
  data->channel = channel_;
  data->seq = seq;
  data->payload = *p.payload;
  host_.send(p.to, std::move(data));
}

void ReliableLink::settle(Pending& p) {
  p.payload = nullptr;
  --unacked_;
}

void ReliableLink::release_settled() {
  while (!outbox_.empty() && outbox_.front().payload == nullptr) outbox_.pop_front();
}

void ReliableLink::arm_timer() {
  if (timer_ != sim::Process::kNoTimer || unacked_ == 0) return;
  timer_ = host_.set_timer(kLinkRto, [this] {
    timer_ = sim::Process::kNoTimer;
    on_tick();
  });
}

void ReliableLink::on_tick() {
  for (std::uint64_t seq = outbox_.base(); seq < outbox_.end(); ++seq) {
    Pending& p = outbox_[seq];
    if (p.payload == nullptr) continue;
    if (++p.retries > kLinkMaxRetries) {
      util::log_debug("link ", host_.id(), ": giving up on seq ", seq, " to ", p.to);
      settle(p);
      continue;
    }
    if (p.retries <= kLinkSteadyRetries || std::has_single_bit(static_cast<unsigned>(p.retries))) {
      transmit(seq, p);
    }
  }
  release_settled();
  arm_timer();
}

bool ReliableLink::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  if (const auto data = wire::message_cast<LinkData>(msg)) {
    if (data->channel != channel_) return false;
    obs::ProfScope prof(obs::CostCenter::GcsLink);
    auto ack = wire::MessagePool<LinkAck>::acquire();
    ack->channel = channel_;
    ack->seq = data->seq;
    host_.send(from, std::move(ack));
    if (seen_.size() <= static_cast<std::size_t>(from)) seen_.resize(from + 1);
    std::vector<bool>& seen = seen_[from];
    if (seen.size() <= data->seq) seen.resize(data->seq + 1);
    const bool fresh = !seen[data->seq];
    seen[data->seq] = true;
    if (fresh && deliver_) {
      const auto payload = wire::from_blob(data->payload);
      if (const auto pack = wire::message_cast<LinkPack>(payload)) {
        for (const auto& blob : pack->payloads) deliver_(from, wire::from_blob(*blob), *blob);
      } else {
        deliver_(from, payload, data->payload);
      }
    }
    return true;
  }
  if (const auto ack = wire::message_cast<LinkAck>(msg)) {
    if (ack->channel != channel_) return false;
    obs::ProfScope prof(obs::CostCenter::GcsLink);
    if (outbox_.contains(ack->seq)) {
      Pending& p = outbox_[ack->seq];
      if (p.payload != nullptr) settle(p);
      release_settled();
    }
    return true;
  }
  return false;
}

}  // namespace repli::gcs

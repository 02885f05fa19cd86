#include "gcs/flood.hh"

namespace repli::gcs {

Flooder::Flooder(sim::Process& host, Group group, std::uint32_t channel, sim::BatchPolicy pack)
    : host_(host), group_(std::move(group)), channel_(channel), link_(host, channel, pack) {
  link_.set_deliver([this](sim::NodeId /*from*/, wire::MessagePtr msg) {
    const auto data = wire::message_cast<FloodData>(msg);
    if (data) accept(*data);
  });
}

void Flooder::rbcast(const wire::Message& msg) {
  FloodData data;
  data.channel = channel_;
  data.origin = host_.id();
  data.seq = next_seq_++;
  data.payload = wire::to_blob(msg);
  accept(data);
}

void Flooder::accept(const FloodData& data) {
  if (!first_time(data.origin, data.seq)) return;
  // Relay first, then deliver: if we deliver, every correct process will
  // eventually receive the relays (uniform agreement under crash-stop).
  disseminate(data, host_.id());
  if (deliver_) deliver_(data.origin, wire::from_blob(data.payload));
}

void Flooder::disseminate(const FloodData& data, sim::NodeId skip) {
  // One encoding serves every destination of this relay.
  const std::string blob = wire::to_blob(data);
  for (const auto m : group_.members()) {
    if (m == skip) continue;
    if (m == data.origin) continue;  // the origin has it by construction
    link_.send_blob(m, blob);
  }
}

bool Flooder::first_time(std::int32_t origin, std::uint64_t seq) {
  SeqWindow& w = seen_[origin];
  if (seq < w.next) return false;
  if (seq > w.next) return w.ahead.insert(seq).second;
  ++w.next;
  while (!w.ahead.empty() && *w.ahead.begin() == w.next) {
    w.ahead.erase(w.ahead.begin());
    ++w.next;
  }
  return true;
}

std::size_t Flooder::out_of_order(sim::NodeId origin) const {
  const auto it = seen_.find(origin);
  return it == seen_.end() ? 0 : it->second.ahead.size();
}

bool Flooder::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return link_.handle(from, msg);
}

}  // namespace repli::gcs

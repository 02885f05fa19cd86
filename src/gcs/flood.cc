#include "gcs/flood.hh"

namespace repli::gcs {

Flooder::Flooder(sim::Process& host, Group group, std::uint32_t channel, sim::BatchPolicy pack)
    : host_(host), group_(std::move(group)), channel_(channel), link_(host, channel, pack) {
  link_.set_deliver([this](sim::NodeId /*from*/, wire::MessagePtr msg, std::string_view bytes) {
    const auto data = wire::message_cast<FloodData>(msg);
    if (data && first_time(data->origin, data->seq)) {
      relay_and_deliver(*data, wire::share_bytes(bytes));
    }
  });
}

void Flooder::rbcast(const wire::Message& msg) {
  FloodData& data = outgoing_;
  data.channel = channel_;
  data.origin = host_.id();
  data.seq = next_seq_++;
  wire::assign_blob(data.payload, msg);
  first_time(data.origin, data.seq);  // a fresh seq: always the first time
  relay_and_deliver(data, wire::share_blob(data));
}

void Flooder::relay_and_deliver(const FloodData& data, const wire::Blob& blob) {
  // Relay first, then deliver: if we deliver, every correct process will
  // eventually receive the relays (uniform agreement under crash-stop).
  // One Blob serves every destination of this relay.
  for (const auto m : group_.members()) {
    if (m == host_.id()) continue;
    if (m == data.origin) continue;  // the origin has it by construction
    link_.send_blob(m, blob);
  }
  if (deliver_) deliver_(data.origin, wire::from_blob(data.payload));
}

bool Flooder::first_time(std::int32_t origin, std::uint64_t seq) {
  if (seen_.size() <= static_cast<std::size_t>(origin)) seen_.resize(origin + 1);
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
  return static_cast<std::size_t>(origin) < seen_.size() ? seen_[origin].ahead.size() : 0;
}

bool Flooder::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  return link_.handle(from, msg);
}

}  // namespace repli::gcs

#include "gcs/abcast_consensus.hh"

#include "obs/profile.hh"
#include "sim/simulator.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::gcs {

ConsensusAbcast::ConsensusAbcast(sim::Process& host, Group group, FailureDetector& fd,
                                 std::uint32_t channel, sim::BatchPolicy batch)
    : AtomicBroadcast(host, batch),
      host_(host),
      group_(std::move(group)),
      flood_(host, group_, channel, batch),
      consensus_(host, group_, fd, channel + 2, batch) {
  flood_.set_deliver([this](sim::NodeId /*origin*/, wire::MessagePtr msg) { on_flood(std::move(msg)); });
  consensus_.set_decide(
      [this](std::uint64_t instance, const std::string& value) { on_decide(instance, value); });
}

void ConsensusAbcast::abcast_now(const wire::Message& msg) {
  AbData data;
  data.origin = host_.id();
  data.lseq = next_lseq_++;
  data.payload = wire::to_blob(msg);
  flood_.rbcast(data);  // delivers locally too, which pends + proposes
}

void ConsensusAbcast::on_flood(wire::MessagePtr msg) {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  const auto data = wire::message_cast<AbData>(msg);
  if (!data) return;
  const MsgId id{data->origin, data->lseq};
  if (delivered_.contains(id)) return;
  if (pending_.emplace(id, data->payload).second) {
    auto& tracer = host_.sim().tracer();
    const obs::SpanId span = tracer.begin(host_.id(), "gcs/abcast.order", host_.now());
    tracer.attr(span, "origin", std::to_string(id.first));
    tracer.attr(span, "lseq", std::to_string(id.second));
    order_spans_[id] = span;
  }
  maybe_start_instance();
}

void ConsensusAbcast::maybe_start_instance() {
  if (pending_.empty() || proposed_current_) return;
  AbBatch batch;
  for (const auto& [id, payload] : pending_) {
    AbData entry;
    entry.origin = id.first;
    entry.lseq = id.second;
    entry.payload = payload;
    batch.entries.push_back(std::move(entry));
  }
  proposed_current_ = true;
  consensus_.propose(next_instance_, wire::to_blob(batch));
}

void ConsensusAbcast::on_decide(std::uint64_t instance, const std::string& value) {
  decisions_.emplace(instance, value);
  apply_ready_decisions();
}

void ConsensusAbcast::apply_ready_decisions() {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  for (;;) {
    const auto it = decisions_.find(next_instance_);
    if (it == decisions_.end()) break;
    const auto batch = wire::message_cast<AbBatch>(wire::from_blob(it->second));
    util::ensure(batch != nullptr, "ConsensusAbcast: decision is not an AbBatch");
    // Batch entries are already deterministically ordered: proposals are
    // built from a std::map keyed by MsgId, and consensus picks one
    // proposal verbatim.
    for (const auto& entry : batch->entries) {
      const MsgId id{entry.origin, entry.lseq};
      if (!delivered_.insert(id).second) continue;  // in an earlier batch too
      pending_.erase(id);
      if (const auto sit = order_spans_.find(id); sit != order_spans_.end()) {
        auto& tracer = host_.sim().tracer();
        tracer.attr(sit->second, "instance", std::to_string(next_instance_));
        tracer.end(sit->second, host_.now());
        const obs::Span* span = tracer.find(sit->second);
        host_.sim().metrics().histogram("gcs.abcast.order_latency_us")
            .observe(static_cast<double>(span->end - span->start));
        order_spans_.erase(sit);
      }
      host_.sim().metrics().incr("gcs.abcast.delivered");
      deliver_up(entry.origin, wire::from_blob(entry.payload));
    }
    decisions_.erase(it);
    ++next_instance_;
    proposed_current_ = false;
  }
  maybe_start_instance();
}

bool ConsensusAbcast::handle(sim::NodeId from, const wire::MessagePtr& msg) {
  if (flood_.handle(from, msg)) return true;
  return consensus_.handle(from, msg);
}

}  // namespace repli::gcs

#include "gcs/abcast.hh"

#include "obs/profile.hh"
#include "sim/simulator.hh"

namespace repli::gcs {

AtomicBroadcast::AtomicBroadcast(sim::Process& host, sim::BatchPolicy batch)
    : abcast_host_(host),
      batcher_(batch, host, [this](std::vector<wire::Blob> p) { flush_batch(std::move(p)); }) {}

void AtomicBroadcast::abcast(const wire::Message& msg) {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  if (!batcher_.policy().batching()) {
    abcast_now(msg);
    return;
  }
  batcher_.add(wire::share_blob(msg));
}

void AtomicBroadcast::flush_batch(std::vector<wire::Blob> payloads) {
  obs::ProfScope prof(obs::CostCenter::GcsAbcast);
  AbEnvelope env;
  env.payloads = std::move(payloads);
  const auto occupancy = static_cast<double>(env.payloads.size());
  abcast_host_.sim().metrics().histogram("gcs.abcast.batch_occupancy").observe(occupancy);
  abcast_host_.sim().tracer().instant(
      abcast_host_.id(), "gcs/abcast.batch_flush", abcast_host_.now(), "",
      obs::Attrs{{"occupancy", std::to_string(env.payloads.size())}});
  if (env.payloads.size() == 1) {
    // A lone payload skips the envelope: same bytes on the wire as an
    // unbatched submission (only the flush-window delay differs).
    abcast_now(*wire::from_blob(*env.payloads.front()));
    return;
  }
  abcast_now(env);
}

void AtomicBroadcast::unpack_into(sim::NodeId origin, const wire::MessagePtr& msg,
                                  const DeliverFn& fn) {
  if (!fn) return;
  if (const auto env = wire::message_cast<AbEnvelope>(msg)) {
    for (const auto& blob : env->payloads) {
      const auto payload = wire::from_blob(*blob);
      obs::ProfScope prof(obs::CostCenter::Technique);
      fn(origin, payload);
    }
    return;
  }
  obs::ProfScope prof(obs::CostCenter::Technique);
  fn(origin, msg);
}

void AtomicBroadcast::deliver_up(sim::NodeId origin, const wire::MessagePtr& msg) {
  unpack_into(origin, msg, deliver_);
}

}  // namespace repli::gcs

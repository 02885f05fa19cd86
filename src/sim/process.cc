#include "sim/process.hh"

#include <utility>

#include "sim/simulator.hh"
#include "util/assert.hh"

namespace repli::sim {

Process::Process(NodeId id, Simulator& sim, std::string name)
    : id_(id), sim_(sim), name_(std::move(name)) {}

Process::~Process() = default;

void Process::send(NodeId to, wire::MessagePtr msg) {
  if (crashed_) return;  // a crashed process is silent
  sim_.net().send(id_, to, std::move(msg));
}

Process::TimerId Process::set_timer(Time delay, util::SmallFn fn, EventClass cls) {
  if (crashed_) return kNoTimer;
  // Owner-guarded: the simulator suppresses the handler if this node has
  // crashed by fire time, so no guard lambda (and no re-erasure) is needed.
  return sim_.schedule_after(delay, std::move(fn), id_, cls);
}

void Process::cancel_timer(TimerId id) { sim_.cancel(id); }

void Process::cpu_execute(Time cost, util::SmallFn done) {
  util::ensure(cost >= 0, "Process::cpu_execute: negative cost");
  if (crashed_) return;
  const Time start = std::max(now(), cpu_free_at_);
  cpu_free_at_ = start + cost;
  sim_.schedule_at(cpu_free_at_, std::move(done), id_);
}

Time Process::now() const { return sim_.now(); }

}  // namespace repli::sim

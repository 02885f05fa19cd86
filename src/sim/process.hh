// Actor base class: a process reacts to messages and timers, and owns a
// one-core "CPU" that serializes its execution costs (so redundant work —
// e.g. active replication executing everywhere — shows up in throughput).
#pragma once

#include <string>

#include "sim/event_heap.hh"
#include "sim/time.hh"
#include "util/smallfn.hh"
#include "wire/message.hh"

namespace repli::sim {

class Simulator;
class Network;

class Process {
 public:
  Process(NodeId id, Simulator& sim, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool crashed() const { return crashed_; }

  /// Called once by Simulator::start_all before any messages flow.
  virtual void start() {}

  /// Called by the network on delivery. `from` is the sending node.
  virtual void on_message(NodeId from, wire::MessagePtr msg) = 0;

  // The action API is public so that protocol components (failure detector,
  // broadcast layers, ...) embedded in a process can act through their host.

  void send(NodeId to, wire::MessagePtr msg);

  using TimerId = EventHandle;
  static constexpr TimerId kNoTimer{};

  /// One-shot timer; silently suppressed if this process crashes first.
  /// Liveness and observation timers pass EventClass::Background.
  TimerId set_timer(Time delay, util::SmallFn fn, EventClass cls = EventClass::Foreground);
  void cancel_timer(TimerId id);

  /// Models CPU work: `done` runs after `cost` of busy time on this
  /// process's single core, queued behind earlier work. Suppressed on crash.
  void cpu_execute(Time cost, util::SmallFn done);

  Time now() const;
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

 private:
  friend class Simulator;
  void mark_crashed() { crashed_ = true; }

  NodeId id_;
  Simulator& sim_;
  std::string name_;
  bool crashed_ = false;
  Time cpu_free_at_ = 0;
};

}  // namespace repli::sim

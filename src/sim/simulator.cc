#include "sim/simulator.hh"

#include <algorithm>

#include "obs/profile.hh"
#include "sim/process.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::sim {
namespace {

// Bulk-compact the heap once dead keys both exceed this floor and
// outnumber live ones; below the floor, pop-time skipping is cheaper than
// an O(n) rebuild.
constexpr std::size_t kCompactFloor = 64;

// Initial queue and slot capacity. Every cluster pays for it at
// construction, touching fresh pages when the allocator has returned the
// heap top; a busy run's few doublings past it cost less.
constexpr std::size_t kInitialEvents = 256;

}  // namespace

Simulator::Simulator(std::uint64_t seed, NetworkConfig net_config)
    : rng_(seed), net_(*this, net_config) {
  queue_.reserve(kInitialEvents);
  slots_.reserve(kInitialEvents);
}

Simulator::~Simulator() = default;

EventHandle Simulator::schedule_at(Time t, util::SmallFn fn, NodeId owner, EventClass cls) {
  util::ensure(t >= now_, "Simulator::schedule_at: scheduling into the past");
  const EventId id = next_event_id_++;
  const SlotIndex slot = take_slot();
  Slot& s = slots_[slot];
  s.id = id;
  s.owner = owner;
  s.cls = cls;
  s.fn = std::move(fn);
  s.ctx = tracer_.context();
  ++live_;
  if (cls == EventClass::Foreground) ++live_foreground_;
  queue_.push(EventKey{t, id, slot});
  return EventHandle{id, slot};
}

Simulator::SlotIndex Simulator::take_slot() {
  if (free_head_ != kNoSlot) {
    const SlotIndex slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<SlotIndex>(slots_.size() - 1);
}

util::SmallFn Simulator::free_slot(SlotIndex slot) {
  Slot& s = slots_[slot];
  --live_;
  if (s.cls == EventClass::Foreground) --live_foreground_;
  s.id = 0;
  s.next_free = free_head_;
  free_head_ = slot;
  return std::move(s.fn);
}

EventHandle Simulator::schedule_after(Time delay, util::SmallFn fn, NodeId owner,
                                      EventClass cls) {
  util::ensure(delay >= 0, "Simulator::schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn), owner, cls);
}

void Simulator::cancel(EventHandle ev) {
  // Only a queued event can be cancelled: once its event ran or was
  // cancelled, a handle's slot is free (id 0) or holds a newer id.
  if (ev.id == 0 || ev.slot >= slots_.size() || slots_[ev.slot].id != ev.id) return;
  // The key stays behind, dead. The captures die at the closing brace,
  // once the slot is back on the free list: a destructor may schedule.
  const util::SmallFn doomed = free_slot(ev.slot);
  maybe_compact();
}

void Simulator::maybe_compact() {
  const std::size_t dead = queue_.size() - live_;
  if (dead < kCompactFloor || dead * 2 <= queue_.size()) return;
  queue_.compact([this](const EventKey& ev) { return !is_live(ev); });
}

bool Simulator::pop_live(EventKey& ev) {
  while (!queue_.empty()) {
    ev = queue_.pop_min();
    if (is_live(ev)) return true;
  }
  return false;
}

bool Simulator::pop_next(EventKey& ev) {
  if (!pop_live(ev)) return false;
  if (perturb_ == nullptr || !perturb_->config.tie_break) return true;
  if (queue_.empty() || queue_.min().time != ev.time) return true;

  // Two or more events are ready at the same instant: gather the whole tie
  // set, pick one uniformly from the schedule-choice stream, and push the
  // rest back (still live: only dispatch or cancel frees a slot). Events
  // the chosen handler schedules for the same instant join the next draw,
  // so repeated draws walk a random interleaving of the ready set.
  std::vector<EventKey>& ties = ties_;
  ties.clear();
  ties.push_back(ev);
  while (!queue_.empty() && queue_.min().time == ties.front().time) {
    const EventKey next = queue_.pop_min();
    if (is_live(next)) ties.push_back(next);
  }
  std::size_t pick = 0;
  if (ties.size() > 1) {
    pick = static_cast<std::size_t>(
        perturb_->rng.uniform(0, static_cast<std::int64_t>(ties.size()) - 1));
    perturb_->decisions.push_back(TieDecision{ties.front().time,
                                              static_cast<std::uint32_t>(ties.size()),
                                              static_cast<std::uint32_t>(pick)});
  }
  for (std::size_t i = 0; i < ties.size(); ++i) {
    if (i != pick) queue_.push(ties[i]);
  }
  ev = ties[pick];
  return true;
}

void Simulator::enable_perturbation(const PerturbConfig& config) {
  util::ensure(dispatched_ == 0,
               "Simulator::enable_perturbation: events already dispatched "
               "(a perturbed prefix could not be replayed)");
  util::ensure(perturb_ == nullptr, "Simulator::enable_perturbation: already enabled");
  perturb_ = std::make_unique<Perturb>(config);
}

Time Simulator::perturb_extra_delay() {
  if (perturb_ == nullptr || perturb_->config.max_extra_delay <= 0) return 0;
  return perturb_->rng.uniform(0, perturb_->config.max_extra_delay);
}

const std::vector<TieDecision>& Simulator::tie_decisions() const {
  static const std::vector<TieDecision> kEmpty;
  return perturb_ == nullptr ? kEmpty : perturb_->decisions;
}

void Simulator::dispatch(const EventKey& ev) {
  util::ensure(ev.time >= now_, "Simulator: time went backwards");
  now_ = ev.time;
  ++dispatched_;
  // Order digest: FNV-1a over the dispatched (time, id) stream. Two runs
  // with equal digests executed the exact same event order.
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  schedule_digest_ = (schedule_digest_ ^ static_cast<std::uint64_t>(ev.time)) * kFnvPrime;
  schedule_digest_ = (schedule_digest_ ^ ev.id) * kFnvPrime;
  Slot& slot = slots_[ev.slot];
  if (slot.cls == EventClass::Foreground) last_foreground_ = ev.time;
  obs::ProfScope prof(obs::CostCenter::SimDispatch);
  // Take the payload and free the slot before the handler runs: the
  // handler may schedule events, which can reuse the slot or regrow
  // slots_ under any reference into it.
  const NodeId owner = slot.owner;
  const obs::TraceContext ctx = slot.ctx;
  util::SmallFn fn = free_slot(ev.slot);
  obs::ContextScope scope(tracer_, ctx);
  // Owner-guarded events (timers, cpu slices) go silent once their node
  // crashes; the event itself still dispatches and counts.
  if (owner == kNoOwner || !processes_[static_cast<std::size_t>(owner)]->crashed()) fn();
}

void Simulator::register_process(std::unique_ptr<Process> proc) {
  util::ensure(proc->id() == static_cast<NodeId>(processes_.size()),
               "Simulator: process id out of sequence");
  processes_.push_back(std::move(proc));
}

Process& Simulator::process(NodeId id) {
  util::ensure(id >= 0 && static_cast<std::size_t>(id) < processes_.size(),
               "Simulator::process: bad node id");
  return *processes_[static_cast<std::size_t>(id)];
}

const Process& Simulator::process(NodeId id) const {
  util::ensure(id >= 0 && static_cast<std::size_t>(id) < processes_.size(),
               "Simulator::process: bad node id");
  return *processes_[static_cast<std::size_t>(id)];
}

void Simulator::start_all() {
  for (const auto& proc : processes_) {
    if (!proc->crashed()) proc->start();
  }
}

void Simulator::crash(NodeId id) {
  // process() validates the id with a clear message; crashing an
  // already-crashed node is a validated no-op (crash-stop is idempotent) —
  // exploration fault plans hit both constantly, and neither may corrupt
  // the run or double-count sim.crashes.
  auto& proc = process(id);
  if (proc.crashed()) {
    util::log_debug("crash: node ", id, " already crashed (no-op)");
    return;
  }
  util::log_info("crash: node ", id, " (", proc.name(), ")");
  proc.mark_crashed();
  metrics_.incr("sim.crashes");
}

bool Simulator::crashed(NodeId id) const { return process(id).crashed(); }

std::size_t Simulator::run_until(Time t_end, std::size_t max_events) {
  return run_horizon(t_end, std::nullopt, max_events);
}

std::size_t Simulator::run_until_quiet(Time t_end, Time quiet, std::size_t max_events) {
  util::ensure(quiet >= 0, "Simulator::run_until_quiet: negative quiet window");
  return run_horizon(t_end, quiet, max_events);
}

std::size_t Simulator::run_horizon(Time t_end, std::optional<Time> quiet,
                                   std::size_t max_events) {
  const Time opened = now_;
  std::size_t executed = 0;
  EventKey ev;
  while (!queue_.empty() && queue_.min().time <= t_end) {
    if (quiet.has_value() && live_foreground_ == 0 &&
        now_ - std::max(opened, last_foreground_) >= *quiet) {
      return executed;  // quiescent: only background events remain
    }
    if (!pop_next(ev)) break;
    if (ev.time > t_end) {
      // The live minimum can sit past t_end behind a dead entry that was
      // within it; the event belongs to a later horizon — push it back
      // (its slot still holds it: only dispatch or cancel frees a slot).
      queue_.push(ev);
      break;
    }
    dispatch(ev);
    if (++executed > max_events) util::fail("Simulator::run_until: event budget exceeded");
  }
  // The horizon has been simulated: nothing can happen before t_end any
  // more, so the clock advances to it even if later events are pending.
  if (now_ < t_end) now_ = t_end;
  return executed;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t executed = 0;
  EventKey ev;
  while (pop_next(ev)) {
    dispatch(ev);
    if (++executed > max_events) util::fail("Simulator::run: event budget exceeded");
  }
  return executed;
}

}  // namespace repli::sim

#include "sim/simulator.hh"

#include <algorithm>

#include "obs/profile.hh"
#include "sim/process.hh"
#include "util/assert.hh"
#include "util/log.hh"

namespace repli::sim {
namespace {

// Bulk-compact the heap once dead entries both exceed this floor and
// outnumber live ones; below the floor, pop-time skipping is cheaper than
// an O(n) rebuild.
constexpr std::size_t kCompactFloor = 64;

// Initial queue and slot capacity, the size of the IdWindow's first ring:
// a run whose queue stays below it never regrows either vector.
constexpr std::size_t kInitialEvents = 1024;

}  // namespace

Simulator::Simulator(std::uint64_t seed, NetworkConfig net_config)
    : rng_(seed), net_(*this, net_config) {
  queue_.reserve(kInitialEvents);
  slots_.reserve(kInitialEvents);
}

Simulator::~Simulator() = default;

Simulator::EventId Simulator::schedule_at(Time t, util::SmallFn fn, NodeId owner,
                                          EventClass cls) {
  util::ensure(t >= now_, "Simulator::schedule_at: scheduling into the past");
  const EventId id = next_event_id_++;
  live_.push(id, cls);
  const SlotIndex slot = take_slot();
  Slot& s = slots_[slot];
  s.owner = owner;
  s.fn = std::move(fn);
  s.ctx = tracer_.context();
  queue_.push(EventKey{t, id, slot});
  return id;
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

void Simulator::free_slot(SlotIndex slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::reclaim(const EventKey& dead) {
  util::ensure(lazy_dead_ > 0, "Simulator: dead-entry accounting drifted");
  --lazy_dead_;
  free_slot(dead.slot);
}

Simulator::EventId Simulator::schedule_after(Time delay, util::SmallFn fn, NodeId owner,
                                             EventClass cls) {
  util::ensure(delay >= 0, "Simulator::schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn), owner, cls);
}

void Simulator::cancel(EventId id) {
  // Only a currently-queued event can be cancelled; ids that already
  // executed, were already cancelled, or were never issued are no-ops.
  // (The previous implementation recorded every cancel in a set forever,
  // so stale timer handles leaked an entry each.)
  if (id == kNoEvent || !live_.is_live(id)) return;
  live_.kill(id);
  ++lazy_dead_;
  maybe_compact();
}

void Simulator::maybe_compact() {
  if (lazy_dead_ < kCompactFloor || lazy_dead_ * 2 <= queue_.size()) return;
  const std::size_t removed = queue_.compact([this](const EventKey& ev) {
    if (live_.is_live(ev.id)) return false;
    free_slot(ev.slot);
    return true;
  });
  util::ensure(removed == lazy_dead_, "Simulator: dead-entry accounting drifted");
  lazy_dead_ = 0;
}

bool Simulator::pop_live(EventKey& ev) {
  while (!queue_.empty()) {
    ev = queue_.pop_min();
    if (live_.is_live(ev.id)) return true;
    // A cancelled entry surfaced before compaction kicked in: reclaim it.
    reclaim(ev);
  }
  return false;
}

bool Simulator::pop_next(EventKey& ev) {
  if (!pop_live(ev)) return false;
  if (perturb_ == nullptr || !perturb_->config.tie_break) return true;
  if (queue_.empty() || queue_.min().time != ev.time) return true;

  // Two or more events are ready at the same instant: gather the whole tie
  // set, pick one uniformly from the schedule-choice stream, and push the
  // rest back (their ids stay live — only dispatch kills ids). Events the
  // chosen handler schedules for the same instant join the next draw, so
  // repeated draws walk a random interleaving of the ready set.
  std::vector<EventKey>& ties = ties_;
  ties.clear();
  ties.push_back(ev);
  while (!queue_.empty() && queue_.min().time == ties.front().time) {
    const EventKey next = queue_.pop_min();
    if (!live_.is_live(next.id)) {
      reclaim(next);
      continue;
    }
    ties.push_back(next);
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
  if (live_.kill(ev.id) == EventClass::Foreground) last_foreground_ = ev.time;
  obs::ProfScope prof(obs::CostCenter::SimDispatch);
  // Take the payload and free the slot before the handler runs: the
  // handler may schedule events, which can reuse the slot or regrow
  // slots_ under any reference into it.
  Slot& slot = slots_[ev.slot];
  const NodeId owner = slot.owner;
  util::SmallFn fn = std::move(slot.fn);
  const obs::TraceContext ctx = slot.ctx;
  free_slot(ev.slot);
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
    if (quiet.has_value() && live_.live_foreground() == 0 &&
        now_ - std::max(opened, last_foreground_) >= *quiet) {
      return executed;  // quiescent: only background events remain
    }
    if (!pop_next(ev)) break;
    if (ev.time > t_end) {
      // The live minimum can sit past t_end behind a dead entry that was
      // within it; the event belongs to a later horizon — push it back
      // (its id is still live in the window: only dispatch kills ids).
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

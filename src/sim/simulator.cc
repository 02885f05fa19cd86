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

}  // namespace

Simulator::Simulator(std::uint64_t seed, NetworkConfig net_config)
    : rng_(seed), net_(*this, net_config) {}

Simulator::~Simulator() = default;

Simulator::EventId Simulator::schedule_at(Time t, util::SmallFn fn, NodeId owner,
                                          EventClass cls) {
  util::ensure(t >= now_, "Simulator::schedule_at: scheduling into the past");
  const EventId id = next_event_id_++;
  live_.push(id, cls);
  queue_.push(Event{t, id, owner, std::move(fn), tracer_.context()});
  return id;
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
  const std::size_t removed =
      queue_.compact([this](const Event& ev) { return !live_.is_live(ev.id); });
  util::ensure(removed == lazy_dead_, "Simulator: dead-entry accounting drifted");
  lazy_dead_ = 0;
}

bool Simulator::pop_live(Event& ev) {
  while (!queue_.empty()) {
    ev = queue_.pop_min();
    if (live_.is_live(ev.id)) return true;
    // A cancelled entry surfaced before compaction kicked in: reclaim it.
    util::ensure(lazy_dead_ > 0, "Simulator: dead-entry accounting drifted");
    --lazy_dead_;
  }
  return false;
}

bool Simulator::pop_next(Event& ev) {
  if (!pop_live(ev)) return false;
  if (perturb_ == nullptr || !perturb_->config.tie_break) return true;
  if (queue_.empty() || queue_.min().time != ev.time) return true;

  // Two or more events are ready at the same instant: gather the whole tie
  // set, pick one uniformly from the schedule-choice stream, and push the
  // rest back (their ids stay live — only dispatch kills ids). Events the
  // chosen handler schedules for the same instant join the next draw, so
  // repeated draws walk a random interleaving of the ready set.
  std::vector<Event> ties;
  ties.push_back(std::move(ev));
  while (!queue_.empty() && queue_.min().time == ties.front().time) {
    Event next = queue_.pop_min();
    if (!live_.is_live(next.id)) {
      util::ensure(lazy_dead_ > 0, "Simulator: dead-entry accounting drifted");
      --lazy_dead_;
      continue;
    }
    ties.push_back(std::move(next));
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
    if (i != pick) queue_.push(std::move(ties[i]));
  }
  ev = std::move(ties[pick]);
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

void Simulator::dispatch(Event& ev) {
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
  obs::ContextScope scope(tracer_, ev.ctx);
  // Owner-guarded events (timers, cpu slices) go silent once their node
  // crashes; the event itself still dispatches and counts.
  if (ev.owner == kNoOwner || !processes_[static_cast<std::size_t>(ev.owner)]->crashed()) {
    ev.fn();
  }
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
  Event ev;
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
      queue_.push(std::move(ev));
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
  Event ev;
  while (pop_next(ev)) {
    dispatch(ev);
    if (++executed > max_events) util::fail("Simulator::run: event budget exceeded");
  }
  return executed;
}

}  // namespace repli::sim

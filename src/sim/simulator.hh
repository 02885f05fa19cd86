// Deterministic discrete-event simulator.
//
// A run is a pure function of (NetworkConfig, seed, protocol code): events
// are ordered by (time, insertion sequence) and all randomness flows from
// one seeded Rng. Processes are actors owned by the simulator; crashing a
// process silences its timers and its network traffic (crash-stop model).
// A simulator owns all of its run's mutable state and stays on the thread
// that built it, so independent simulators may run on different threads.
//
// The event queue is a 4-ary min-heap with lazy deletion (sim/event_heap.hh)
// over 24-byte {time, id, slot} keys. The slot, in a free-listed vector, is
// the event's only record: its id, class, owner, handler and trace context.
// Heap sifts never move a callable, and a key is live while its slot holds
// its id. cancel(handle) frees the slot, captures included, in O(1); a
// handle whose event already ran or was cancelled is a no-op. The dead key
// is dropped when popped, or compacted in bulk once dead keys outnumber
// live ones. Pop order is byte-identical to the std::priority_queue this
// replaced (fuzz-tested).
//
// Every event has a class (sim/event_heap.hh): background for the
// self-re-arming liveness and observation events, foreground for the rest.
// run_until_quiet() stops once no foreground event is pending and none has
// dispatched for a quiet window — the idle tail a fixed horizon would
// otherwise simulate heartbeat by heartbeat.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "obs/context.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/event_heap.hh"
#include "sim/network.hh"
#include "sim/time.hh"
#include "sim/trace.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "util/smallfn.hh"

namespace repli::sim {

class Process;

/// Schedule perturbation for exploration runs (src/explore): seeded random
/// tie-breaking among same-timestamp events plus bounded extra delivery
/// delay. All perturbation randomness flows from its own seeded stream, so
/// a perturbed run stays a pure function of (config, workload seed,
/// schedule seed) — a failing schedule replays from two integers.
struct PerturbConfig {
  std::uint64_t seed = 0;    // schedule-choice stream (independent of workload)
  bool tie_break = true;     // randomize order among same-time events
  Time max_extra_delay = 0;  // per-delivery jitter bound, uniform [0, max]; 0 = off
};

/// One recorded tie-break decision: at `time`, `ties` events were ready and
/// the `chosen`-th (in (time, id) order) ran first.
struct TieDecision {
  Time time = 0;
  std::uint32_t ties = 0;
  std::uint32_t chosen = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed, NetworkConfig net_config = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  using EventId = std::uint64_t;
  static constexpr EventHandle kNoEvent{};

  /// No owner: the event fires unconditionally.
  static constexpr NodeId kNoOwner = -1;

  /// Schedules `fn` at `t`. If `owner` is a node id, the handler is
  /// skipped (but the event still dispatches) when that node has crashed
  /// by fire time — the crash-stop guard for timers and cpu slices,
  /// hoisted here so callers don't wrap `fn` in a guard lambda (a SmallFn
  /// never fits inside another SmallFn's inline buffer). `cls` is the
  /// event's class; only liveness and observation events pass Background.
  EventHandle schedule_at(Time t, util::SmallFn fn, NodeId owner = kNoOwner,
                          EventClass cls = EventClass::Foreground);
  EventHandle schedule_after(Time delay, util::SmallFn fn, NodeId owner = kNoOwner,
                             EventClass cls = EventClass::Foreground);

  /// Cancels a queued event and destroys its handler at once. Safe for any
  /// handle: one whose event already ran or was cancelled, whose slot now
  /// holds a newer event, or that was never issued is an O(1) no-op.
  void cancel(EventHandle ev);

  /// Constructs a process of type T, registers it, and returns a reference.
  /// NodeIds are assigned densely in spawn order, so a fixed construction
  /// order yields fixed ids.
  template <typename T, typename... Args>
  T& spawn(Args&&... args) {
    auto proc = std::make_unique<T>(next_node_id(), *this, std::forward<Args>(args)...);
    T& ref = *proc;
    register_process(std::move(proc));
    return ref;
  }

  Process& process(NodeId id);
  const Process& process(NodeId id) const;
  std::size_t process_count() const { return processes_.size(); }

  /// Calls start() on every spawned process (in id order).
  void start_all();

  /// Crash-stop `id` at the current time: no more sends, receives, or timers.
  void crash(NodeId id);
  bool crashed(NodeId id) const;

  /// Runs events until the queue empties or `t_end` passes. Returns the
  /// number of events executed. Throws if `max_events` is exceeded
  /// (runaway-protocol guard).
  std::size_t run_until(Time t_end, std::size_t max_events = 50'000'000);

  /// Like run_until, but returns early once the run is quiescent: no
  /// foreground event is pending and none has dispatched for `quiet` — the
  /// window counting from the later of the last foreground dispatch and
  /// this call (whatever the caller did just before, such as crashing a
  /// node or healing a partition, gets a full window to show its effects).
  /// On an early return the clock stays at the last dispatched event.
  std::size_t run_until_quiet(Time t_end, Time quiet, std::size_t max_events = 50'000'000);

  /// Runs until the event queue is empty.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Live events currently queued — the dead keys of cancelled events are
  /// excluded, so the `queue.events` gauge reports true queue depth.
  std::size_t pending_events() const { return live_; }
  /// Live foreground events currently queued (exact: cancels count at once).
  std::size_t pending_foreground() const { return live_foreground_; }

  /// Events dispatched so far (the run's logical step counter).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Event slots allocated so far: the high-water mark of live queued
  /// events (a cancel frees its slot at once; slots are reused, never
  /// released).
  std::size_t event_slots() const { return slots_.size(); }

  /// Installs schedule perturbation. Must be called before any event has
  /// dispatched (the perturbed prefix could otherwise not be replayed).
  /// Off by default: an unperturbed run keeps the exact (time, id) order.
  void enable_perturbation(const PerturbConfig& config);
  bool perturbing() const { return perturb_ != nullptr; }

  /// Extra delivery delay drawn from the perturbation stream — uniform in
  /// [0, max_extra_delay]. 0 (and no stream consumption) when perturbation
  /// is off or the jitter bound is 0. Called by Network per delivery.
  Time perturb_extra_delay();
  /// Upper bound of perturb_extra_delay() (0 when jitter is off).
  Time perturb_max_delay() const {
    return perturb_ == nullptr ? 0 : perturb_->config.max_extra_delay;
  }

  /// Tie-break decisions recorded so far (empty unless perturbing with
  /// tie_break; only genuine ties — 2+ ready events — are recorded).
  const std::vector<TieDecision>& tie_decisions() const;

  /// FNV-1a digest over the (time, id) sequence of every dispatched event:
  /// two runs with equal digests executed byte-identical event orders.
  std::uint64_t schedule_digest() const { return schedule_digest_; }

  util::Rng& rng() { return rng_; }
  obs::Registry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  Trace& trace() { return trace_; }
  Network& net() { return net_; }
  obs::LamportClocks& lamports() { return lamports_; }

 private:
  using SlotIndex = std::uint32_t;
  static constexpr SlotIndex kNoSlot = 0xFFFFFFFFu;

  /// What the heap orders: trivially copyable, so a sift moves 24 bytes.
  struct EventKey {
    Time time = 0;
    EventId id = 0;
    SlotIndex slot = kNoSlot;
  };
  static_assert(sizeof(EventKey) == 24 && std::is_trivially_copyable_v<EventKey>);
  /// What the heap does not move: the event itself, from schedule_at until
  /// dispatch or cancel.
  struct Slot {
    EventId id = 0;                 // the queued event's id; 0 while free
    NodeId owner = kNoOwner;        // crash-stop guard; kNoOwner fires always
    SlotIndex next_free = kNoSlot;  // free-list link while unused
    util::SmallFn fn;
    // The scheduling context propagates to the event: a timer or cpu slice
    // scheduled inside a traced request stays part of that trace.
    obs::TraceContext ctx;
    EventClass cls = EventClass::Foreground;  // last: it fits the tail padding
  };

  NodeId next_node_id() const { return static_cast<NodeId>(processes_.size()); }
  void register_process(std::unique_ptr<Process> proc);

  struct Perturb {
    PerturbConfig config;
    util::Rng rng;
    std::vector<TieDecision> decisions;
    explicit Perturb(const PerturbConfig& c) : config(c), rng(c.seed) {}
  };

  /// Pops the next live event's key into `ev` (dropping dead keys).
  /// Returns false when the queue holds no live event. With tie-break
  /// perturbation on, a random ready event runs first instead of the
  /// lowest-id one.
  bool pop_next(EventKey& ev);
  /// The unperturbed part of pop_next: lowest (time, id) live event.
  bool pop_live(EventKey& ev);
  bool is_live(const EventKey& ev) const { return slots_[ev.slot].id == ev.id; }
  SlotIndex take_slot();
  /// Ends the slot's event (dispatch or cancel): uncounts it, puts the slot
  /// on the free list and hands back the handler, which the caller destroys
  /// once the slot is free (a capture's destructor may schedule).
  util::SmallFn free_slot(SlotIndex slot);
  /// Checked dispatch shared by every run loop: asserts time never
  /// rewinds, advances the clock, frees the event's slot, and runs the
  /// handler in its context.
  void dispatch(const EventKey& ev);
  /// The loop behind run_until and run_until_quiet (no quiet window: run
  /// to the horizon).
  std::size_t run_horizon(Time t_end, std::optional<Time> quiet, std::size_t max_events);
  void maybe_compact();

  Time now_ = 0;
  Time last_foreground_ = 0;  // time of the last foreground dispatch
  std::uint64_t dispatched_ = 0;
  std::uint64_t schedule_digest_ = 14695981039346656037ull;  // FNV-1a basis
  std::unique_ptr<Perturb> perturb_;
  EventId next_event_id_ = 1;
  EventHeap<EventKey> queue_;
  std::vector<Slot> slots_;        // indexed by EventKey::slot
  SlotIndex free_head_ = kNoSlot;  // intrusive free list through Slot::next_free
  std::vector<EventKey> ties_;     // pop_next's tie set, reused
  std::size_t live_ = 0;             // live events; the rest of queue_ is dead keys
  std::size_t live_foreground_ = 0;  // the foreground ones among them
  std::vector<std::unique_ptr<Process>> processes_;
  util::Rng rng_;
  obs::Registry metrics_;
  obs::Tracer tracer_;
  Trace trace_{tracer_};
  Network net_;
  obs::LamportClocks lamports_;
  util::LogClock log_clock_{now_};  // stamps this thread's log lines with now_
};

}  // namespace repli::sim

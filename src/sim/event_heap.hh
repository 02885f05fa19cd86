// 4-ary min-heap event queue with lazy deletion.
//
// The heap orders keys, not events: the simulator pushes a trivially
// copyable {time, id, slot} key, and each event's handler, owner and trace
// context live in a slot the key indexes (Simulator::Slot). A sift moves 24
// bytes and never touches a type-erased callable. Pop order is the total
// order (time asc, id asc) — identical to the std::priority_queue of whole
// events this replaced (the order is unique, so neither heap arity nor
// where the payload lives can change it; a fuzz test holds the two
// implementations byte-identical). Wins over std::priority_queue:
//
//  - 4-ary layout: ~half the tree depth, comparisons stay in one or two
//    cache lines per level — measurably faster sift-down on pop.
//  - pop_min() *moves* the element out; priority_queue::top() is const.
//  - Cancellation is a lazy liveness flip validated against an IdWindow:
//    cancelling an executed or never-scheduled id is an O(1) no-op.
//    Dead entries are reclaimed when popped, or compacted in bulk when
//    they outnumber the live ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hh"

namespace repli::sim {

/// An event's class. Background events are the self-re-arming liveness and
/// observation events (failure-detector ticks and heartbeat deliveries,
/// membership polls, monitor samples); every other event is foreground.
/// A run whose pending events are all background is idle: only a chain
/// through a background event (a suspicion, a trust) can create new work.
enum class EventClass : std::uint8_t { Foreground, Background };

/// Liveness window over densely increasing event ids: one byte per id
/// between the oldest live id and the newest issued one. push() must see
/// strictly increasing ids (the simulator's next_event_id_ counter).
/// kill() and is_live() are O(1); the window's base advances past dead
/// prefixes so memory tracks the live id *span*, not run length. The byte
/// also records the event's class, so the live foreground count stays exact
/// through push, dispatch and cancel at no extra cost.
class IdWindow {
 public:
  using Id = std::uint64_t;

  void push(Id id, EventClass cls = EventClass::Foreground) {
    util::ensure(id >= base_ + count_, "IdWindow: ids must increase");
    // Ids can skip forward (never happens today, but harmless): pad dead.
    while (base_ + count_ < id) append(kDead);
    const bool background = cls == EventClass::Background;
    append(background ? kLiveBackground : kLiveForeground);
    ++live_;
    if (!background) ++live_foreground_;
  }

  bool is_live(Id id) const {
    if (id < base_ || id >= base_ + count_) return false;
    return ring_[index(id)] != kDead;
  }

  /// Marks `id` dead (executed or cancelled) and returns the class it was
  /// pushed with. Caller checks is_live first.
  EventClass kill(Id id) {
    util::ensure(is_live(id), "IdWindow::kill: id not live");
    std::uint8_t& flag = ring_[index(id)];
    const bool background = flag == kLiveBackground;
    flag = kDead;
    --live_;
    if (!background) --live_foreground_;
    advance();
    return background ? EventClass::Background : EventClass::Foreground;
  }

  std::size_t live_count() const { return live_; }
  std::size_t live_foreground() const { return live_foreground_; }
  std::size_t window_span() const { return count_; }

 private:
  static constexpr std::uint8_t kDead = 0;
  static constexpr std::uint8_t kLiveForeground = 1;
  static constexpr std::uint8_t kLiveBackground = 2;

  std::size_t index(Id id) const {
    return (head_ + static_cast<std::size_t>(id - base_)) % ring_.size();
  }

  void append(std::uint8_t flag) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = flag;
    ++count_;
  }

  /// Pops dead flags off the front so the window tracks the live span.
  void advance() {
    while (count_ > 0 && ring_[head_] == kDead) {
      head_ = (head_ + 1) % ring_.size();
      ++base_;
      --count_;
    }
  }

  void grow() {
    const std::size_t old_cap = ring_.size();
    const std::size_t new_cap = old_cap == 0 ? 1024 : old_cap * 2;
    std::vector<std::uint8_t> next(new_cap, kDead);
    for (std::size_t i = 0; i < count_; ++i) next[i] = ring_[(head_ + i) % old_cap];
    ring_.swap(next);
    head_ = 0;
  }

  std::vector<std::uint8_t> ring_;
  std::size_t head_ = 0;   // ring index of base_'s flag
  std::size_t count_ = 0;  // flags currently in the window
  Id base_ = 1;            // first id inside the window (event ids start at 1)
  std::size_t live_ = 0;
  std::size_t live_foreground_ = 0;
};

/// The heap proper. TEvent must expose `time` and `id` members and be
/// movable (the simulator's is a 24-byte key); ordering is (time, id)
/// ascending.
template <typename TEvent>
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  const TEvent& min() const { return heap_.front(); }

  void push(TEvent ev) {
    heap_.push_back(std::move(ev));
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the minimum element (moved out, never copied).
  TEvent pop_min() {
    util::ensure(!heap_.empty(), "EventHeap::pop_min: empty");
    TEvent out = std::move(heap_.front());
    TEvent last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = std::move(last);
      sift_down(0);
    }
    return out;
  }

  /// Drops every element for which `dead(ev)` holds and re-heapifies:
  /// O(n), called only when dead entries dominate (amortized O(1) per
  /// cancellation).
  template <typename Pred>
  std::size_t compact(Pred&& dead) {
    std::size_t removed = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (dead(heap_[i])) {
        ++removed;
        continue;
      }
      if (keep != i) heap_[keep] = std::move(heap_[i]);
      ++keep;
    }
    heap_.resize(keep);
    heapify();
    return removed;
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  static constexpr std::size_t kArity = 4;

  static bool less(const TEvent& a, const TEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }

  void sift_up(std::size_t i) {
    TEvent ev = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(ev, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(ev);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    TEvent ev = std::move(heap_[i]);
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], ev)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(ev);
  }

  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }

  std::vector<TEvent> heap_;
};

}  // namespace repli::sim

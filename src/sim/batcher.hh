// Size-or-window batching, the one mechanism behind every batching layer:
// network frame coalescing, link packs, abcast envelopes, sequencer order
// batches and eager-locking group commit. A Batcher holds one buffer; a
// layer that batches per destination keeps a map of them.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hh"
#include "util/smallfn.hh"

namespace repli::sim {

class Process;
class Simulator;

/// Up to `max` items per batch; a partial batch flushes `window` after its
/// first item. max <= 1 means no batching.
struct BatchPolicy {
  int max = 1;
  Time window = 200 * kUsec;

  bool batching() const { return max > 1; }
};

/// `Host` is where the window timer lives: a Process (a process timer,
/// skipped once the process has crashed) or the Simulator (a plain event).
template <class Item, class Host = Process>
class Batcher {
 public:
  using FlushFn = std::function<void(std::vector<Item>)>;

  Batcher(BatchPolicy policy, Host& host, FlushFn flush)
      : policy_(policy), host_(host), flush_(std::move(flush)) {}
  Batcher(const Batcher&) = delete;  // window timers capture `this`
  Batcher& operator=(const Batcher&) = delete;

  /// Buffers `item`: flushes at policy.max items (at max <= 1, every item
  /// at once and no timer), else the first item arms the window timer.
  void add(Item item) {
    items_.push_back(std::move(item));
    if (static_cast<int>(items_.size()) >= policy_.max) {
      flush();
      return;
    }
    if (items_.size() == 1) {
      auto fire = [this, epoch = epoch_] {
        if (epoch == epoch_) flush();  // else a stale timer: its batch already flushed
      };
      static_assert(sizeof(fire) <= util::SmallFn::kInlineBytes);
      if constexpr (std::is_same_v<Host, Simulator>) {
        host_.schedule_after(policy_.window, std::move(fire));
      } else {
        host_.set_timer(policy_.window, std::move(fire));
      }
    }
  }

  const BatchPolicy& policy() const { return policy_; }

 private:
  // The buffer is empty before the flush action runs, so an action that
  // adds to this batcher (a synchronous self-delivery) starts a new batch.
  void flush() {
    ++epoch_;
    flush_(std::exchange(items_, {}));
  }

  BatchPolicy policy_;
  Host& host_;
  FlushFn flush_;
  std::vector<Item> items_;
  std::uint64_t epoch_ = 0;  // flushes so far: tells a window timer its batch is gone
};

}  // namespace repli::sim

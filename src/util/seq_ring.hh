// A window of consecutive sequence numbers, one slot each, in a ring buffer:
// the flat stand-in for a std::map keyed by a dense counter (the reliable
// link's outbox, the sequencer's per-origin message table and its
// gseq-ordered delivery queue). A slot is found at `seq - base()`; the
// window grows at the back and is released from the front, so memory
// follows the live window rather than the run's length, and a warmed-up
// ring allocates nothing. Iteration is by sequence number only, never by
// address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hh"

namespace repli::util {

template <class T>
class SeqRing {
 public:
  /// An empty window whose first slot will be `base`.
  explicit SeqRing(std::uint64_t base = 0) : base_(base) {}

  /// The lowest sequence number in the window (every one below is released).
  std::uint64_t base() const { return base_; }
  /// One past the highest sequence number in the window.
  std::uint64_t end() const { return base_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool contains(std::uint64_t seq) const { return seq >= base_ && seq - base_ < size_; }

  /// The slot of `seq`; requires contains(seq).
  T& operator[](std::uint64_t seq) { return slots_[index(seq)]; }
  const T& operator[](std::uint64_t seq) const { return slots_[index(seq)]; }

  /// Appends the slot `end()`, holding `value`.
  T& push_back(T value) {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
    slot = std::move(value);
    ++size_;
    return slot;
  }

  /// The slot of `seq`, first extending the window with empty (T{}) slots
  /// up to it; requires seq >= base().
  T& extend_to(std::uint64_t seq) {
    ensure(seq >= base_, "SeqRing::extend_to: sequence number below the window");
    while (seq >= end()) push_back(T{});
    return (*this)[seq];
  }

  T& front() { return slots_[head_]; }

  /// Releases the lowest slot (reset to T{}) and advances base() past it.
  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    ++base_;
  }

 private:
  std::size_t index(std::uint64_t seq) const {
    return (head_ + static_cast<std::size_t>(seq - base_)) & (slots_.size() - 1);
  }

  /// Doubles the capacity (a power of two), laying the window out from 0.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;  // index of base_'s slot
  std::size_t size_ = 0;
  std::uint64_t base_;
};

}  // namespace repli::util

// Append-only chunked store.
//
// Elements live in fixed-size blocks allocated one at a time as the store
// grows. Growth never moves or copies an element already stored, so element
// addresses stay valid until clear(), and there is never a moment when an
// old and a new copy of the contents are both resident (a doubling
// std::vector holds both while it reallocates, and keeps up to half its
// capacity unused afterwards). An empty store owns no memory at all.
//
// Indexing is a block-table load plus an offset; iteration walks block by
// block. Moving a store hands its blocks over, so element addresses survive
// the move too. The tracer keeps its spans and flows here: both are
// append-only for the life of a run and reach millions of records on long
// ones.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace repli::util {

template <typename T, std::size_t kBlockBytes = 64 * 1024>
class ChunkedStore {
 public:
  /// Elements per block (at least one, however large T is).
  static constexpr std::size_t kPerBlock =
      kBlockBytes / sizeof(T) > 0 ? kBlockBytes / sizeof(T) : 1;

  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;

    Iter() = default;
    Iter(T* const* block, std::size_t slot) : block_(block), slot_(slot) {}

    reference operator*() const { return (*block_)[slot_]; }
    pointer operator->() const { return &(*block_)[slot_]; }
    Iter& operator++() {
      if (++slot_ == kPerBlock) {
        ++block_;
        slot_ = 0;
      }
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iter& o) const { return block_ == o.block_ && slot_ == o.slot_; }

   private:
    T* const* block_ = nullptr;
    std::size_t slot_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  ChunkedStore() = default;
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;
  ChunkedStore(ChunkedStore&& o) noexcept
      : blocks_(std::exchange(o.blocks_, {})), size_(std::exchange(o.size_, 0)) {}
  ChunkedStore& operator=(ChunkedStore&& o) noexcept {
    if (this != &o) {
      clear();
      blocks_ = std::exchange(o.blocks_, {});
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~ChunkedStore() { clear(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Blocks currently allocated (0 for an empty store).
  std::size_t blocks() const { return blocks_.size(); }

  T& operator[](std::size_t i) { return blocks_[i / kPerBlock][i % kPerBlock]; }
  const T& operator[](std::size_t i) const { return blocks_[i / kPerBlock][i % kPerBlock]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == blocks_.size() * kPerBlock) {
      blocks_.push_back(std::allocator<T>().allocate(kPerBlock));
    }
    T* slot = blocks_[size_ / kPerBlock] + size_ % kPerBlock;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroys every element and releases every block.
  void clear() noexcept {
    for (auto& v : *this) v.~T();
    for (T* block : blocks_) std::allocator<T>().deallocate(block, kPerBlock);
    std::vector<T*>().swap(blocks_);
    size_ = 0;
  }

  iterator begin() { return {blocks_.data(), 0}; }
  iterator end() { return {blocks_.data() + size_ / kPerBlock, size_ % kPerBlock}; }
  const_iterator begin() const { return {blocks_.data(), 0}; }
  const_iterator end() const { return {blocks_.data() + size_ / kPerBlock, size_ % kPerBlock}; }

 private:
  std::vector<T*> blocks_;
  std::size_t size_ = 0;
};

}  // namespace repli::util

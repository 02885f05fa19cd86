// Per-type message pooling: recycled objects and recycled shared_ptr
// control blocks.
//
// The PR-6 profile put ~78% of wire.decode allocations in the
// make_shared<Derived>() every decode performed. A pooled decode instead:
//
//  - pulls the Derived object from a per-type freelist (its string/vector
//    fields keep their heap buffers, so re-decoding reuses capacity), and
//  - allocates the shared_ptr control block through PoolAlloc, a sized
//    freelist, so the control block is recycled too.
//
// Steady state is therefore zero heap allocations per decode. The same
// pool serves wire::Blob's strings (MessagePool<std::string>): a recycled
// string keeps its capacity for the next encode. The deleter
// recycles instead of destroying. Every freelist belongs to one thread: a
// message goes back to the list of the thread that releases it (the thread
// running its Simulator), so the lists need no lock. A thread's lists are
// freed when it exits; a release after that (a shared_ptr dropped during
// static destruction) frees the object directly.
#pragma once

#include <memory>
#include <vector>

namespace repli::wire {

namespace detail {

/// The calling thread's freelist of `T*`; `Dispose` frees an entry for good.
template <typename T, void (*Dispose)(T*)>
class ThreadFreelist {
 public:
  /// A recycled entry, or nullptr when the list is empty.
  static T* pop() {
    std::vector<T*>* list = items();
    if (list == nullptr || list->empty()) return nullptr;
    T* p = list->back();
    list->pop_back();
    return p;
  }

  static void push(T* p) {
    if (std::vector<T*>* list = items()) {
      list->push_back(p);
    } else {
      Dispose(p);
    }
  }

 private:
  struct Owner {
    std::vector<T*> list;
    ~Owner() {
      for (T* p : list) Dispose(p);
      gone_ = true;
    }
  };

  /// nullptr once this thread's list has been freed.
  static std::vector<T*>* items() {
    if (gone_) return nullptr;
    thread_local Owner owner;
    return &owner.list;
  }

  // Trivially destructible, so it stays readable after the Owner is gone.
  static inline thread_local bool gone_ = false;
};

template <typename T>
void free_storage(T* p) {
  ::operator delete(p);
}

/// Minimal allocator whose storage comes from a per-(type, size) freelist.
/// shared_ptr rebinds it to its internal control-block type, so each
/// control-block shape gets its own list.
template <typename T>
struct PoolAlloc {
  using value_type = T;

  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    if (T* p = Blocks::pop()) return p;
    return static_cast<T*>(::operator new(sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    Blocks::push(p);
  }

  template <typename U>
  bool operator==(const PoolAlloc<U>&) const {
    return true;
  }

 private:
  using Blocks = ThreadFreelist<T, &free_storage<T>>;
};

}  // namespace detail

template <typename Derived>
class MessagePool {
 public:
  /// A Derived whose deleter recycles it here; steady-state allocation-free.
  static std::shared_ptr<Derived> acquire() {
    Derived* obj = Objects::pop();
    if (obj == nullptr) obj = new Derived();
    return std::shared_ptr<Derived>(obj, Recycler{}, detail::PoolAlloc<Derived>{});
  }

 private:
  static void destroy(Derived* p) { delete p; }
  using Objects = detail::ThreadFreelist<Derived, &MessagePool::destroy>;

  struct Recycler {
    void operator()(Derived* p) const { Objects::push(p); }
  };
};

}  // namespace repli::wire

// Heap-allocation counting for allocation-budget tests. Including this
// header replaces the global operator new of the whole test binary with
// one that counts every allocation while an AllocCounter is in scope, so
// include it from exactly one source file per binary, and give that
// binary to allocation tests alone.
// The replacement forwards to malloc/free, so it also runs under ASan.

#ifndef DISTSKETCH_TESTS_ALLOC_COUNTER_H_
#define DISTSKETCH_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter_internal {

inline std::atomic<bool> g_counting{false};
inline std::atomic<uint64_t> g_allocs{0};

inline void* CountedAlloc(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_counter_internal

void* operator new(size_t n) {
  return alloc_counter_internal::CountedAlloc(n);
}
void* operator new[](size_t n) {
  return alloc_counter_internal::CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace distsketch {

// Counts every heap allocation while in scope.
class AllocCounter {
 public:
  AllocCounter() {
    alloc_counter_internal::g_allocs.store(0);
    alloc_counter_internal::g_counting.store(true);
  }
  ~AllocCounter() { alloc_counter_internal::g_counting.store(false); }
  uint64_t count() const { return alloc_counter_internal::g_allocs.load(); }
};

}  // namespace distsketch

#endif  // DISTSKETCH_TESTS_ALLOC_COUNTER_H_

// Test-only replacement of the global operator new / delete that counts heap
// allocations and records the largest single request, so a test can bound
// what a call allocates. Include it from exactly one source file of a test
// binary: it defines the replaceable global allocation functions.

#ifndef BAGCPD_TESTS_ALLOC_COUNTER_H_
#define BAGCPD_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace bagcpd {
namespace alloc_counter {

inline std::atomic<long> calls{0};
inline std::atomic<std::size_t> largest{0};

// Starts a fresh measurement.
inline void Reset() {
  calls.store(0);
  largest.store(0);
}

}  // namespace alloc_counter
}  // namespace bagcpd

void* operator new(std::size_t size) {
  bagcpd::alloc_counter::calls.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = bagcpd::alloc_counter::largest.load();
  while (size > seen &&
         !bagcpd::alloc_counter::largest.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#endif  // BAGCPD_TESTS_ALLOC_COUNTER_H_

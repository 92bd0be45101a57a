// Global operator new/delete replacement that counts allocations. Linked
// into the micro-benchmark binary only — production code never depends on
// it.
#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed atomics: google-benchmark's own threads may allocate too.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return p;
}

}  // namespace

namespace colony::benchalloc {

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace colony::benchalloc

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Heap-allocation counter for mem.allocs_per_op.
//
// Replacing the global allocation functions is the one sanctioned way to see
// every heap allocation in the process (bench/kernel.cc does the same).  The
// relaxed increment costs a few ns, identically on every commit measured.
// Kept alone in its translation unit so no inlined new-expression sits next
// to the free() below.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "e2e.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  size_t a = static_cast<size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace music::e2e {

uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace music::e2e

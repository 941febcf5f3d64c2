// Replaces the global scalar operator new/delete for the benchmark binary.
// The library's default array and nothrow forms forward to these, so every
// plain heap allocation is seen. Aligned allocations keep the
// library's own pair and are not counted.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> alloc_calls{0};
std::atomic<uint64_t> alloc_bytes{0};

}  // namespace

void StartAllocCounting() {
  alloc_calls.store(0, std::memory_order_relaxed);
  alloc_bytes.store(0, std::memory_order_relaxed);
  counting.store(true, std::memory_order_release);
}

AllocCounts StopAllocCounting() {
  counting.store(false, std::memory_order_release);
  return AllocCounts{alloc_calls.load(std::memory_order_relaxed),
                     alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (perfbench::counting.load(std::memory_order_relaxed)) {
    perfbench::alloc_calls.fetch_add(1, std::memory_order_relaxed);
    perfbench::alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

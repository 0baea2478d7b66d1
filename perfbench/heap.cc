// The driver's replacement of the global operator new/delete, counting
// live heap bytes for traced runs (see EnableHeapAccounting).
//
// Only the plain forms are replaced: libstdc++'s array, sized and
// nothrow forms forward to them, and its aligned forms bypass them on
// both sides, so every counted allocation is also counted when freed.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {

namespace {
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void Charge(void* p) {
  const int64_t bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}
}  // namespace

void EnableHeapAccounting() { g_counting.store(true, std::memory_order_relaxed); }

int64_t ResetHeapPeak() {
  const int64_t now = g_live.load(std::memory_order_relaxed);
  g_peak.store(now, std::memory_order_relaxed);
  return now;
}

int64_t HeapPeakBytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::Charge(p);
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                                std::memory_order_relaxed);
  }
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

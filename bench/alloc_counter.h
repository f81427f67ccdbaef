#ifndef MARITIME_BENCH_ALLOC_COUNTER_H_
#define MARITIME_BENCH_ALLOC_COUNTER_H_

// Heap-allocation counting for the google-benchmark binaries: replaces the
// global operator new/delete with counting wrappers, so a benchmark can
// report allocations per item next to its time. Include from exactly one
// translation unit per binary (each microbench is one). Sanitizer builds
// provide their own operator new; the counter then stays at zero and
// kAllocCountingActive is false.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MARITIME_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MARITIME_BENCH_COUNT_ALLOCS 0
#else
#define MARITIME_BENCH_COUNT_ALLOCS 1
#endif
#else
#define MARITIME_BENCH_COUNT_ALLOCS 1
#endif

namespace maritime::bench {
inline std::atomic<uint64_t> g_heap_allocs{0};
inline constexpr bool kAllocCountingActive = MARITIME_BENCH_COUNT_ALLOCS != 0;
}  // namespace maritime::bench

#if MARITIME_BENCH_COUNT_ALLOCS
// The replaced operators pair new->malloc with delete->free by construction;
// GCC's mismatched-new-delete heuristic cannot see that pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  maritime::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  maritime::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // MARITIME_BENCH_COUNT_ALLOCS

#endif  // MARITIME_BENCH_ALLOC_COUNTER_H_

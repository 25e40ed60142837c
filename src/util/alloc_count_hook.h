// Global heap-allocation counting hook — the zero-copy contract's probe.
//
// Replaces the process-wide operator new/delete with counting versions so
// a steady-state loop can assert "this forwarded N packets without a
// single heap allocation". Shared by tests/alloc_count_test.cpp and
// bench/bench_e2_forwarding.cpp so the CI test and the bench count the
// exact same allocation set.
//
// Include this header in EXACTLY ONE translation unit of a binary: it
// defines the (deliberately non-inline-replaceable) global allocation
// functions. Not a library header — never include it from src/.
#pragma once

// This TU replaces BOTH global new (malloc-backed) and delete (free), so
// every new/delete pairing stays matched by construction — but GCC's -O2
// inliner, seeing the malloc through the replaced new, flags inlined
// deletes elsewhere in the TU as -Wmismatched-new-delete (same GCC 12
// false-positive family as the demotions in ApnaCompileOptions.cmake).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace apna::util {

inline std::atomic<std::uint64_t> g_heap_allocs{0};
inline thread_local std::uint64_t t_heap_allocs = 0;

/// Total operator-new calls in this process so far.
inline std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// operator-new calls made by the calling thread so far: attributes a
/// process-wide count to the thread that allocated.
inline std::uint64_t thread_heap_alloc_count() { return t_heap_allocs; }

}  // namespace apna::util

void* operator new(std::size_t size) {
  apna::util::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++apna::util::t_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

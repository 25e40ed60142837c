// WorkerGroup — the one fork-join runtime behind the M-worker pools
// (router::ForwardingPool, services::ServicePool, dns::ResolverPool).
//
// A group has size() processing contexts ("slots"). Slot 0 is the thread
// that calls run(); slots 1..size()-1 are persistent workers started by the
// constructor. An idle worker parks on an atomic generation counter
// (std::atomic::wait / notify_all): there is no mutex and no condition
// variable. run(fn) publishes fn, bumps the generation, runs fn(0) on the
// caller, then waits on an atomic count of workers still running.
//
// Ordering rule (what the pools rely on instead of a lock):
//  * everything the caller wrote before run() happens-before every fn(slot):
//    the generation bump is a release and the worker's wake is an acquire;
//  * every fn(slot) happens-before run() returns: each worker's decrement
//    of the pending count is acq_rel and the caller's wait is an acquire.
// So a burst descriptor may live on the caller's stack, and results written
// by any slot may be read by the caller after run() without further
// synchronization. Between two run() calls every worker is parked.
//
// fn is borrowed as a function pointer plus a context pointer — never
// wrapped in std::function — so run() and for_chunks() do not allocate.
// size() == 1 starts no thread, and run() is a plain call of fn(0).
//
// run() and for_chunks() may not be called concurrently from two threads
// (one in-flight job at a time), nor from inside fn. With size() > 1, fn
// must not throw: an exception on any slot terminates the program, since
// the other slots may still be using the caller's stack.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

namespace apna::util {

class WorkerGroup {
 public:
  /// `threads` processing contexts, the calling thread included; 0 means
  /// one per hardware thread.
  explicit WorkerGroup(std::size_t threads);
  /// Wakes the parked workers with a stop request and joins them.
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  std::size_t size() const { return size_; }

  /// Calls fn(slot) once for every slot in [0, size()) — slot 0 on the
  /// calling thread — and returns when every call has returned.
  template <typename Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    if (size_ == 1) {
      fn(std::size_t{0});
      return;
    }
    dispatch(
        [](void* ctx, std::size_t slot) { (*static_cast<F*>(ctx))(slot); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Splits [0, n) into ranges of `chunk` (> 0) indices (the last may be
  /// short) and calls fn(slot, begin, end) once per range. Slots claim
  /// ranges with one fetch_add each, so which slot runs a range is
  /// unspecified; every index is covered exactly once.
  template <typename Fn>
  void for_chunks(std::size_t n, std::size_t chunk, Fn&& fn) {
    assert(chunk > 0);
    if (n == 0) return;
    std::atomic<std::size_t> next{0};
    run([&](std::size_t slot) {
      for (;;) {
        const std::size_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        fn(slot, begin, std::min(begin + chunk, n));
      }
    });
  }

 private:
  using Thunk = void (*)(void* ctx, std::size_t slot);

  void dispatch(Thunk fn, void* ctx) noexcept;
  void worker_main(std::size_t slot) noexcept;

  std::size_t size_;
  // The published job; written by the caller before the generation bump.
  Thunk fn_ = nullptr;
  void* ctx_ = nullptr;
  bool stop_ = false;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> pending_{0};  // workers still inside fn_
  std::vector<std::thread> workers_;
};

}  // namespace apna::util

// util::WorkerGroup, the fork-join runtime under ForwardingPool,
// ServicePool and ResolverPool: every slot runs exactly once per run(),
// for_chunks covers [0, n) exactly once, a 1-slot group never leaves the
// calling thread, and destroying a group with parked workers returns.
// The per-slot counters are plain ints on purpose: the TSan leg of ci.sh
// checks the header's happens-before rule through them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/worker_group.h"

namespace apna::util {
namespace {

TEST(WorkerGroup, EverySlotRunsOncePerCall) {
  WorkerGroup group(4);
  ASSERT_EQ(group.size(), 4u);
  constexpr int kCalls = 10'000;
  std::vector<int> runs(group.size(), 0);
  std::atomic<int> calls{0};
  for (int c = 0; c < kCalls; ++c) {
    calls.store(0, std::memory_order_relaxed);
    group.run([&](std::size_t slot) {
      ++runs[slot];
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(calls.load(std::memory_order_relaxed), 4) << "call " << c;
    for (std::size_t s = 0; s < group.size(); ++s)
      ASSERT_EQ(runs[s], c + 1) << "slot " << s << " call " << c;
  }
}

TEST(WorkerGroup, ForChunksCoversEveryIndexOnce) {
  constexpr std::size_t kChunk = 7;
  for (const std::size_t threads : {1u, 4u}) {
    WorkerGroup group(threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
          10 * kChunk + 3}) {
      std::vector<int> hits(n, 0);  // ranges are disjoint: no two slots
                                    // write the same index
      std::atomic<std::size_t> ranges{0};
      group.for_chunks(n, kChunk,
                       [&](std::size_t slot, std::size_t begin,
                           std::size_t end) {
                         EXPECT_LT(slot, group.size());
                         EXPECT_EQ(begin % kChunk, 0u);
                         EXPECT_LT(begin, end);
                         EXPECT_EQ(end, std::min(begin + kChunk, n));
                         for (std::size_t i = begin; i < end; ++i) ++hits[i];
                         ranges.fetch_add(1, std::memory_order_relaxed);
                       });
      EXPECT_EQ(ranges.load(), (n + kChunk - 1) / kChunk)
          << "threads=" << threads << " n=" << n;
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "threads=" << threads << " n=" << n
                              << " index " << i;
    }
  }
}

TEST(WorkerGroup, OneSlotRunsOnTheCallingThread) {
  WorkerGroup group(1);
  ASSERT_EQ(group.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  group.run([&](std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
  group.for_chunks(3, 1, [&](std::size_t slot, std::size_t, std::size_t) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(WorkerGroup, ZeroThreadsMeansOnePerHardwareThread) {
  WorkerGroup group(0);
  EXPECT_EQ(group.size(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(WorkerGroup, DestroyingParkedWorkersReturns) {
  {
    WorkerGroup never_run(4);  // workers park before any job
  }
  {
    WorkerGroup group(4);
    group.run([](std::size_t) {});
    // Give the workers time to go back to sleep on the generation counter.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  SUCCEED();
}

}  // namespace
}  // namespace apna::util

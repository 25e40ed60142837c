// ForwardingPool — the border router's M-worker data plane.
//
// Bursts are std::span<const wire::PacketView>: the caller owns the
// buffers; workers only read the wire images in place. Classification is
// allocation-free; the action phase hands each forwarded packet to the
// callbacks as one pooled copy (see BorderRouter::apply_*_verdicts).
//
// The paper sizes the forwarding experiment on a 16-core commodity server
// (§V-B3) and reaches line rate because every per-packet operation is
// symmetric crypto plus two table lookups (design choice 3). This pool is
// the software analogue of that device's RSS/receive-side scaling — and
// like RSS it steers by FLOW, not by position: each packet is assigned to
// the worker owning its flow EphID (core/flow_steer.h), the calling thread
// scatters the burst into per-worker RX rings, and every worker runs its
// ring to completion (classify, with its own hot FlowCache) before the
// forwarding actions — the TX side — are executed in burst order on the
// CALLING thread. So the single-threaded simulator event loop (or a real
// socket RX loop) can drive the pool without its callbacks ever running
// concurrently. One flow → one worker, so
// flow_cache_stats().cross_worker_duplicates is 0 by construction.
//
// The pool picks no kernel: BorderRouter::classify_*_burst chooses the
// per-packet loop or the fused batch pipeline from the size of the span it
// is handed (kFusedMinBurst), here a worker's ring.
//
// Threading model (see ARCHITECTURE.md "Concurrency model"):
//  * Config::threads is the TOTAL processing parallelism: one
//    util::WorkerGroup whose workers park on an atomic (no condvar), with
//    the calling thread as slot 0, which runs ring 0 like any worker.
//    threads == 1 means no background workers, no rings and no gather: the
//    caller's span is classified in place, under one uncontended mutex.
//  * Each processing context owns a Stats slot; stats() merges the slots
//    (plus the action-phase counters) on read, taking each slot's lock, so
//    it is safe to call concurrently with processing.
//  * process_*() may not be called concurrently from two threads (one
//    in-flight burst at a time; the simulator/benchmark driver is one
//    thread by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "router/border_router.h"
#include "util/worker_group.h"

namespace apna::router {

class ForwardingPool {
 public:
  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
    /// Per-worker verified-flow cache capacity (entries); 0 disables the
    /// caches. Each processing context owns its own core::FlowCache — no
    /// locks, no cross-thread sharing; revocations invalidate via
    /// AsState::epoch.
    std::size_t flow_cache_entries = 4096;
  };

  explicit ForwardingPool(BorderRouter& br) : ForwardingPool(br, Config()) {}
  ForwardingPool(BorderRouter& br, Config cfg);

  ForwardingPool(const ForwardingPool&) = delete;
  ForwardingPool& operator=(const ForwardingPool&) = delete;

  /// Classifies the egress burst across all processing threads, then runs
  /// the forwarding actions (send_external) on the calling thread in burst
  /// order. Blocks until the burst is fully processed.
  void process_outgoing(std::span<const wire::PacketView> burst,
                        core::ExpTime now);

  /// Ingress twin: transit + local delivery.
  void process_ingress(std::span<const wire::PacketView> burst, core::ExpTime now);

  /// Per-thread stats merged on read (classification drops from every
  /// worker slot + action-phase forward/deliver/transit counters).
  BorderRouter::Stats stats() const;

  /// Per-worker flow-cache counters merged on read (hit rate of the
  /// verified-flow caches across all processing contexts), plus the
  /// steering-quality probe: cross_worker_duplicates counts EphIDs
  /// currently cached by more than one worker (0 under flow-hash
  /// steering).
  core::FlowCache::Stats flow_cache_stats() const;

  /// Total processing threads (callers + workers).
  std::size_t threads() const { return group_.size(); }

 private:
  void process_burst(std::span<const wire::PacketView> burst, core::ExpTime now,
                     bool ingress);
  /// Classifies `burst` against slot `slot`'s stats and cache.
  void classify(std::size_t slot, std::span<const wire::PacketView> burst,
                core::ExpTime now, bool ingress,
                std::span<BorderRouter::Verdict> out);
  /// Classifies this slot's steered RX ring run-to-completion: gather the
  /// ring's views, one classify pass against the slot's own FlowCache,
  /// scatter verdicts back to burst order (disjoint indices — no two slots
  /// write the same verdict).
  void run_ring(std::size_t slot, std::span<const wire::PacketView> burst,
                core::ExpTime now, bool ingress);

  struct alignas(64) Slot {
    mutable std::mutex mu;
    BorderRouter::Stats stats;
    /// This processing context's verified-flow cache (null when disabled).
    /// Only ever touched by the slot's owner under the slot lock — the
    /// cache itself is single-owner by design.
    std::unique_ptr<core::FlowCache> cache;
    /// Steered RX ring: burst indices assigned to this slot. Written by
    /// the calling thread before group_.run (the workers are parked
    /// between bursts); read by the owner during run_ring. gather/scratch
    /// are the owner's reusable buffers — allocation-free once warm.
    std::vector<std::uint32_t> ring;
    std::vector<wire::PacketView> gather;
    std::vector<BorderRouter::Verdict> scratch;
  };

  BorderRouter& br_;
  mutable std::mutex mu_;             // guards action_stats_ only
  BorderRouter::Stats action_stats_;  // caller-thread action phase
  std::unique_ptr<Slot[]> slots_;     // one per group_ slot
  // Written by the slots in run_ring (disjoint indices), read by the
  // caller after group_.run returns.
  std::vector<BorderRouter::Verdict> verdict_buf_;
  util::WorkerGroup group_;  // last: its workers stop before the slots go
};

}  // namespace apna::router

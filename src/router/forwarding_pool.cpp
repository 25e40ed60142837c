#include "router/forwarding_pool.h"

#include <unordered_map>

#include "core/flow_steer.h"

namespace apna::router {

ForwardingPool::ForwardingPool(BorderRouter& br, Config cfg)
    : br_(br), group_(cfg.threads) {
  slots_ = std::make_unique<Slot[]>(group_.size());
  if (cfg.flow_cache_entries > 0)
    for (std::size_t i = 0; i < group_.size(); ++i)
      slots_[i].cache =
          std::make_unique<core::FlowCache>(cfg.flow_cache_entries);
}

void ForwardingPool::classify(std::size_t slot,
                              std::span<const wire::PacketView> burst,
                              core::ExpTime now, bool ingress,
                              std::span<BorderRouter::Verdict> out) {
  Slot& s = slots_[slot];
  std::lock_guard slot_lock(s.mu);
  if (ingress) {
    br_.classify_ingress_burst(burst, now, out, s.stats, s.cache.get());
  } else {
    br_.classify_outgoing_burst(burst, now, out, s.stats, s.cache.get());
  }
}

void ForwardingPool::run_ring(std::size_t slot,
                              std::span<const wire::PacketView> burst,
                              core::ExpTime now, bool ingress) {
  Slot& s = slots_[slot];
  if (s.ring.empty()) return;
  // Gather the steered views so the (contiguous-span) classify kernels and
  // this slot's cache see one run-to-completion pass over the whole ring.
  s.gather.clear();
  for (const std::uint32_t idx : s.ring) s.gather.push_back(burst[idx]);
  s.scratch.resize(s.ring.size());
  classify(slot, s.gather, now, ingress, s.scratch);
  // Scatter back to burst order. Rings partition the burst, so no two
  // slots ever write the same verdict index.
  for (std::size_t j = 0; j < s.ring.size(); ++j)
    verdict_buf_[s.ring[j]] = s.scratch[j];
}

void ForwardingPool::process_burst(std::span<const wire::PacketView> burst,
                                   core::ExpTime now, bool ingress) {
  if (burst.empty()) return;
  verdict_buf_.resize(burst.size());
  const std::size_t n_slots = group_.size();
  if (n_slots == 1) {
    // One cache, nothing to steer: classify the caller's span in place.
    classify(0, burst, now, ingress, verdict_buf_);
  } else {
    // Scatter the burst into per-worker RX rings by flow hash. The workers
    // are parked between bursts, and group_.run orders these writes ahead
    // of any ring read; the calling thread runs ring 0.
    for (std::size_t i = 0; i < n_slots; ++i) slots_[i].ring.clear();
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const ByteSpan key =
          ingress ? burst[i].dst_ephid_span() : burst[i].src_ephid_span();
      slots_[core::steer_worker(key, n_slots)].ring.push_back(
          static_cast<std::uint32_t>(i));
    }
    group_.run([&](std::size_t slot) { run_ring(slot, burst, now, ingress); });
  }
  // Action phase on the calling thread, burst order, OUTSIDE mu_: the
  // callbacks may be arbitrarily slow or call back into stats() without
  // blocking (or self-deadlocking on) the pool's lock. Counters go to a
  // local first and merge under mu_ so stats() never tears action_stats_.
  BorderRouter::Stats action;
  if (ingress) {
    br_.apply_ingress_verdicts(burst, verdict_buf_, action);
  } else {
    br_.apply_outgoing_verdicts(burst, verdict_buf_, action);
  }
  {
    std::lock_guard lock(mu_);
    action_stats_ += action;
  }
}

void ForwardingPool::process_outgoing(std::span<const wire::PacketView> burst,
                                      core::ExpTime now) {
  process_burst(burst, now, /*ingress=*/false);
}

void ForwardingPool::process_ingress(std::span<const wire::PacketView> burst,
                                     core::ExpTime now) {
  process_burst(burst, now, /*ingress=*/true);
}

BorderRouter::Stats ForwardingPool::stats() const {
  BorderRouter::Stats merged;
  {
    std::lock_guard lock(mu_);
    merged += action_stats_;
  }
  for (std::size_t i = 0; i < group_.size(); ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    merged += slots_[i].stats;
  }
  return merged;
}

core::FlowCache::Stats ForwardingPool::flow_cache_stats() const {
  core::FlowCache::Stats merged;
  // EphID → number of worker caches currently holding it. Each cache holds
  // an EphID at most once (same-key inserts refresh in place), so a count
  // above one means the flow's verdict was re-derived on another worker —
  // exactly what flow-hash steering exists to prevent.
  std::unordered_map<core::EphId, std::uint32_t, core::EphIdHash> owners;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    if (!slots_[i].cache) continue;
    merged += slots_[i].cache->stats();
    slots_[i].cache->for_each_entry(
        [&owners](const core::FlowCache::Entry& e) { ++owners[e.ephid]; });
  }
  for (const auto& [ephid, workers] : owners)
    if (workers > 1) merged.cross_worker_duplicates += workers - 1;
  return merged;
}

}  // namespace apna::router

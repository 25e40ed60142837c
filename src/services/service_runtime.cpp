#include "services/service_runtime.h"

#include <cassert>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rng.h"
#include "services/accountability_agent.h"
#include "services/management_service.h"
#include "wire/msg_codec.h"

namespace apna::services {

// ---- ServiceDispatcher ------------------------------------------------------

void ServiceDispatcher::dispatch(wire::PacketBuf pkt) {
  core::EphId dst;
  dst.bytes = pkt.view().dst_ephid();
  ControlService* svc = route(dst);
  if (!svc) {
    counters_.unrouted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counters_.dispatched.fetch_add(1, std::memory_order_relaxed);
  auto reply = svc->handle_packet(pkt.view());
  if (!reply) {
    counters_.service_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counters_.replies.fetch_add(1, std::memory_order_relaxed);
  if (reply_) reply_(reply.take());
}

ServiceDispatcher::Stats ServiceDispatcher::stats() const {
  Stats s;
  s.dispatched = counters_.dispatched.load(std::memory_order_relaxed);
  s.replies = counters_.replies.load(std::memory_order_relaxed);
  s.unrouted = counters_.unrouted.load(std::memory_order_relaxed);
  s.service_errors = counters_.service_errors.load(std::memory_order_relaxed);
  return s;
}

// ---- ServicePool ------------------------------------------------------------

ServicePool::ServicePool(ManagementService& ms, AccountabilityAgent* aa,
                         Config cfg)
    : ms_(ms), aa_(aa), rng_seed_(cfg.rng_seed), group_(cfg.threads) {
  slots_ = std::make_unique<Slot[]>(group_.size());
  for (std::size_t i = 0; i < group_.size(); ++i)
    slots_[i].drbg = std::make_unique<crypto::HmacDrbg>(rng_seed_, i);
}

void ServicePool::issue_chunk(std::size_t slot,
                              std::span<const IssueJob> burst,
                              std::size_t begin, std::size_t end,
                              core::ExpTime now, std::uint64_t nonce0,
                              std::span<Result<Bytes>> results) {
  std::lock_guard slot_lock(slots_[slot].mu);
  const std::size_t m = end - begin;

  // Stage 1 — validate/decrypt/decode every request of the chunk.
  std::vector<ManagementService::PreparedIssue> preps(m);
  std::vector<Result<void>> begun;
  begun.reserve(m);
  for (std::size_t j = 0; j < m; ++j)
    begun.push_back(ms_.begin_issue(burst[begin + j].ctrl,
                                    burst[begin + j].sealed_request, now,
                                    preps[j]));

  // Stage 2 — one ed25519_verify_batch sweep over the chunk's
  // proof-of-possession signatures (bit-identical to per-request scalar
  // verification; see ed25519.h). The z coefficients come from this
  // SLOT's private DRBG — they never influence the verdicts, so
  // determinism per (seed, burst index) is preserved.
  std::vector<crypto::Ed25519BatchItem> items;
  std::vector<std::size_t> item_index;
  items.reserve(m);
  item_index.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (!begun[j]) continue;
    items.push_back({&preps[j].request.ephid_pub.sig,
                     ByteSpan(preps[j].pop_tbs.data(), preps[j].pop_tbs.size()),
                     &preps[j].request.pop_sig});
    item_index.push_back(j);
  }
  std::vector<char> pop_ok(m, 0);
  if (!items.empty()) {
    auto verdicts = std::make_unique<bool[]>(items.size());
    (void)crypto::ed25519_verify_batch({items.data(), items.size()},
                                       verdicts.get(), *slots_[slot].drbg);
    for (std::size_t v = 0; v < items.size(); ++v)
      pop_ok[item_index[v]] = verdicts[v] ? 1 : 0;
  }

  // Stage 3 — finish each request with its own (seed, index)-derived
  // DRBG and reply nonce: results are bit-identical no matter which
  // worker (or how many workers) ran the request.
  Stats& st = slots_[slot].stats;
  for (std::size_t j = 0; j < m; ++j) {
    ++st.issuance_jobs;
    if (!begun[j]) {
      ++st.failed_jobs;
      results[begin + j] = Result<Bytes>(begun[j].error());
      continue;
    }
    crypto::HmacDrbg rng(rng_seed_, nonce0 + begin + j);
    wire::MsgWriter out(320);
    auto issued = ms_.finish_issue(preps[j], pop_ok[j] != 0, now, rng,
                                   nonce0 + begin + j, out);
    if (issued) {
      results[begin + j] = out.take();
    } else {
      ++st.failed_jobs;
      results[begin + j] = Result<Bytes>(issued.error());
    }
  }
}

void ServicePool::process_issuance(std::span<const IssueJob> burst,
                                   core::ExpTime now,
                                   std::span<Result<Bytes>> results) {
  assert(results.size() >= burst.size());
  if (burst.empty()) return;
  // One contiguous nonce block per burst: request i uses nonce0+i, so the
  // emitted ciphertexts are independent of worker scheduling.
  const std::uint64_t nonce0 = ms_.reserve_reply_nonces(burst.size());
  group_.for_chunks(
      burst.size(), kIssueChunk,
      [&](std::size_t slot, std::size_t begin, std::size_t end) {
        issue_chunk(slot, burst, begin, end, now, nonce0, results);
      });
}

void ServicePool::process_shutoffs(std::span<const core::ShutoffRequest> burst,
                                   core::ExpTime now,
                                   std::span<Result<void>> results) {
  assert(aa_ != nullptr && "ServicePool built without an AccountabilityAgent");
  assert(results.size() >= burst.size());
  // One request per claim: the AA batches nothing, and each verification
  // is long enough (~300 us) that finer claims only balance the load.
  group_.for_chunks(
      burst.size(), 1, [&](std::size_t slot, std::size_t i, std::size_t) {
        std::lock_guard slot_lock(slots_[slot].mu);
        results[i] = aa_->process(burst[i], now);
        ++slots_[slot].stats.shutoff_jobs;
        if (!results[i]) ++slots_[slot].stats.failed_jobs;
      });
}

ServicePool::Stats ServicePool::stats() const {
  Stats merged;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    merged.issuance_jobs += slots_[i].stats.issuance_jobs;
    merged.shutoff_jobs += slots_[i].stats.shutoff_jobs;
    merged.failed_jobs += slots_[i].stats.failed_jobs;
  }
  return merged;
}

}  // namespace apna::services

#include "services/service_runtime.h"

#include <algorithm>
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
    : ms_(ms), aa_(aa), cfg_(cfg) {
  if (cfg_.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.threads = hw == 0 ? 1 : hw;
  }
  if (cfg_.chunk_jobs == 0) cfg_.chunk_jobs = 16;
  slots_ = std::make_unique<Slot[]>(cfg_.threads);
  for (std::size_t i = 0; i < cfg_.threads; ++i)
    slots_[i].drbg = std::make_unique<crypto::HmacDrbg>(cfg_.rng_seed, i);
  workers_.reserve(cfg_.threads - 1);
  for (std::size_t i = 1; i < cfg_.threads; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

ServicePool::~ServicePool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ServicePool::process_chunk(std::size_t slot, std::size_t begin,
                                std::size_t end) {
  std::lock_guard slot_lock(slots_[slot].mu);
  if (kind_ == JobKind::issuance) {
    const auto* jobs = static_cast<const IssueJob*>(jobs_);
    auto* results = static_cast<Result<Bytes>*>(results_);
    const std::size_t m = end - begin;

    // Stage 1 — validate/decrypt/decode every request of the chunk.
    std::vector<ManagementService::PreparedIssue> preps(m);
    std::vector<Result<void>> begun;
    begun.reserve(m);
    for (std::size_t j = 0; j < m; ++j)
      begun.push_back(ms_.begin_issue(jobs[begin + j].ctrl,
                                      jobs[begin + j].sealed_request, now_,
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
                       ByteSpan(preps[j].pop_tbs.data(),
                                preps[j].pop_tbs.size()),
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
    for (std::size_t j = 0; j < m; ++j) {
      ++slots_[slot].stats.issuance_jobs;
      if (!begun[j]) {
        ++slots_[slot].stats.failed_jobs;
        results[begin + j] = Result<Bytes>(begun[j].error());
        continue;
      }
      crypto::HmacDrbg rng(cfg_.rng_seed, nonce0_ + begin + j);
      wire::MsgWriter out(320);
      auto issued = ms_.finish_issue(preps[j], pop_ok[j] != 0, now_, rng,
                                     nonce0_ + begin + j, out);
      if (issued) {
        results[begin + j] = out.take();
      } else {
        ++slots_[slot].stats.failed_jobs;
        results[begin + j] = Result<Bytes>(issued.error());
      }
    }
  } else {
    const auto* jobs = static_cast<const core::ShutoffRequest*>(jobs_);
    auto* results = static_cast<Result<void>*>(results_);
    for (std::size_t j = begin; j < end; ++j) {
      results[j] = aa_->process(jobs[j], now_);
      ++slots_[slot].stats.shutoff_jobs;
      if (!results[j]) ++slots_[slot].stats.failed_jobs;
    }
  }
}

void ServicePool::claim_chunks(std::size_t slot) {
  for (;;) {
    std::size_t begin, end;
    {
      std::lock_guard lock(mu_);
      if (next_chunk_ >= chunks_total_) return;
      begin = next_chunk_++ * cfg_.chunk_jobs;
      end = std::min(begin + cfg_.chunk_jobs, jobs_n_);
    }
    process_chunk(slot, begin, end);
    {
      std::lock_guard lock(mu_);
      if (++chunks_done_ == chunks_total_) cv_done_.notify_all();
    }
  }
}

void ServicePool::worker_main(std::size_t slot) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock,
                    [this] { return stop_ || next_chunk_ < chunks_total_; });
      if (stop_) return;
    }
    claim_chunks(slot);
  }
}

void ServicePool::run_burst(JobKind kind, const void* jobs, std::size_t n,
                            void* results, core::ExpTime now) {
  if (n == 0) return;
  {
    std::lock_guard lock(mu_);
    kind_ = kind;
    jobs_ = jobs;
    jobs_n_ = n;
    results_ = results;
    now_ = now;
    next_chunk_ = 0;
    chunks_done_ = 0;
    chunks_total_ = (n + cfg_.chunk_jobs - 1) / cfg_.chunk_jobs;
  }
  cv_work_.notify_all();

  // The calling thread is processing context 0: claim chunks like any
  // worker instead of blocking, so threads == 1 needs no handoff at all.
  claim_chunks(0);
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return chunks_done_ == chunks_total_; });
  }
}

void ServicePool::process_issuance(std::span<const IssueJob> burst,
                                   core::ExpTime now,
                                   std::span<Result<Bytes>> results) {
  assert(results.size() >= burst.size());
  // One contiguous nonce block per burst: request i uses nonce0+i, so the
  // emitted ciphertexts are independent of worker scheduling. Written
  // before run_burst's locked descriptor update, so workers observe it
  // through the same mu_ acquire that hands them their first chunk.
  nonce0_ = ms_.reserve_reply_nonces(burst.size());
  run_burst(JobKind::issuance, burst.data(), burst.size(), results.data(),
            now);
}

void ServicePool::process_shutoffs(std::span<const core::ShutoffRequest> burst,
                                   core::ExpTime now,
                                   std::span<Result<void>> results) {
  assert(aa_ != nullptr && "ServicePool built without an AccountabilityAgent");
  assert(results.size() >= burst.size());
  run_burst(JobKind::shutoff, burst.data(), burst.size(), results.data(), now);
}

ServicePool::Stats ServicePool::stats() const {
  Stats merged;
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    std::lock_guard slot_lock(slots_[i].mu);
    merged.issuance_jobs += slots_[i].stats.issuance_jobs;
    merged.shutoff_jobs += slots_[i].stats.shutoff_jobs;
    merged.failed_jobs += slots_[i].stats.failed_jobs;
  }
  return merged;
}

}  // namespace apna::services

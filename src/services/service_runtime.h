// Control-plane service fabric: the common service interface, the per-AS
// dispatcher, and the M-worker issuance/verification pool.
//
// The paper's §V-A measures the Management Service as the control-plane
// bottleneck and parallelizes it across 4 processes; this header is that
// parallelization as a first-class runtime, mirroring the data plane's
// router::ForwardingPool (PR 2) on the control side:
//
//  * ControlService   — what an AS-operated broker service IS to the
//    fabric: an addressable EphID endpoint that turns one inbound control
//    packet into at most one reply. MS, AA and DNS implement it. (The
//    Registry Service stays outside: Fig 2 bootstrap runs over the host's
//    physical attachment BEFORE the host holds any EphID, so it is never
//    reachable through packet dispatch.)
//  * ServiceDispatcher — routes inbound control packets to the service
//    owning the destination EphID and forwards replies through the AS
//    fabric. One instance per AS, event-loop resident.
//  * ServicePool      — fans bursts of independent control-plane jobs
//    (EphID issuance, shutoff verification) across the slots of one
//    util::WorkerGroup (the runtime ForwardingPool and ResolverPool use
//    too). Job results are deterministic and thread-count independent:
//    each request gets its own counter-derived rng and reply nonce, so a
//    4-worker pool emits bit-identical responses to a single-threaded
//    loop (pinned by control_plane_test). Per-worker Stats slots are
//    merged on read, exactly like ForwardingPool.
//
// Threading model (see ARCHITECTURE.md "Concurrency model"): dispatcher on
// the event loop only; ServicePool::process_* may not be called from two
// threads at once (one in-flight burst), but the underlying service state
// (sharded AsState, immutable key schedules, atomic counters) is safe for
// the M concurrent workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "core/ids.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "util/result.h"
#include "util/worker_group.h"
#include "wire/packet_buf.h"

namespace apna::services {

class ManagementService;
class AccountabilityAgent;

/// One AS-operated broker service as the fabric sees it: an EphID-addressed
/// endpoint turning an inbound control packet into at most one reply.
class ControlService {
 public:
  virtual ~ControlService() = default;

  /// Routing key — packets whose destination EphID equals this belong here.
  virtual const core::EphId& service_ephid() const = 0;
  /// The service's infrastructure HID (its intra-AS switch port).
  virtual core::Hid service_hid() const = 0;
  virtual const char* service_name() const = 0;

  /// Handles one inbound packet (view into the caller-owned buffer) and
  /// returns the reply packet, or an error for request packets that
  /// produce no reply at all (drops).
  virtual Result<wire::PacketBuf> handle_packet(const wire::PacketView& pkt) = 0;
};

/// Per-AS control-packet router: destination EphID → ControlService.
/// Event-loop resident (dispatch is not called concurrently); the counters
/// are still atomics so stats() can be read from anywhere.
class ServiceDispatcher {
 public:
  using ReplyFn = std::function<void(wire::PacketBuf)>;

  /// Plain copyable counters (returned by stats()).
  struct Stats {
    std::uint64_t dispatched = 0;      // packets routed to a service
    std::uint64_t replies = 0;         // replies forwarded into the fabric
    std::uint64_t unrouted = 0;        // no service owns the dst EphID
    std::uint64_t service_errors = 0;  // service produced no reply
  };

  explicit ServiceDispatcher(ReplyFn reply) : reply_(std::move(reply)) {}

  void add(ControlService& svc) { by_ephid_[svc.service_ephid()] = &svc; }

  ControlService* route(const core::EphId& dst_ephid) const {
    auto it = by_ephid_.find(dst_ephid);
    return it == by_ephid_.end() ? nullptr : it->second;
  }

  /// Full inbound path: route by destination EphID, invoke the service on
  /// a view of the (owned) buffer, forward the reply. Consumes the packet.
  void dispatch(wire::PacketBuf pkt);

  Stats stats() const;
  std::size_t service_count() const { return by_ephid_.size(); }

 private:
  std::unordered_map<core::EphId, ControlService*, core::EphIdHash> by_ephid_;
  ReplyFn reply_;
  struct Counters {
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> replies{0};
    std::atomic<std::uint64_t> unrouted{0};
    std::atomic<std::uint64_t> service_errors{0};
  };
  Counters counters_;
};

/// M-worker pool for bursts of independent control-plane jobs over one
/// util::WorkerGroup: Config::threads is the TOTAL parallelism (threads-1
/// parked workers plus the calling thread as slot 0; threads == 1
/// degenerates to a plain loop). Issuance is claimed kIssueChunk requests
/// at a time, shutoff verification one request at a time.
class ServicePool {
 public:
  /// Issuance requests per claim unit. Also the batch width of the
  /// per-chunk ed25519_verify_batch PoP sweep: 16 amortizes the shared
  /// point doublings across the whole chunk.
  static constexpr std::size_t kIssueChunk = 16;

  struct Config {
    /// Total processing threads (calling thread included). 0 → one per
    /// hardware thread.
    std::size_t threads = 0;
    /// Base seed for the per-request rngs. Results depend on (seed,
    /// request index) only — never on worker assignment or thread count.
    /// Each request gets HmacDrbg(rng_seed, nonce0 + index); each worker
    /// SLOT additionally owns HmacDrbg(rng_seed, slot) for randomness that
    /// never surfaces in outputs (batch-verification coefficients).
    std::uint64_t rng_seed = 0x5eedc0de;
  };

  /// Plain copyable counters, merged across worker slots on read.
  struct Stats {
    std::uint64_t issuance_jobs = 0;
    std::uint64_t shutoff_jobs = 0;
    std::uint64_t failed_jobs = 0;
  };

  /// `aa` may be null when only issuance bursts are processed.
  ServicePool(ManagementService& ms, AccountabilityAgent* aa, Config cfg);
  explicit ServicePool(ManagementService& ms)
      : ServicePool(ms, nullptr, Config()) {}

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  /// One Fig 3 issuance request: the requesting control EphID plus the
  /// E_kHA-sealed EphIdRequest. The caller owns the request bytes for the
  /// duration of the call.
  struct IssueJob {
    core::EphId ctrl;
    ByteSpan sealed_request;
  };

  /// Issues the whole burst across all processing threads; results[i] is
  /// the sealed response (or error) for burst[i]. Blocks until done.
  /// Deterministic: a contiguous block of reply nonces is reserved up
  /// front and request i uses nonce0+i and HmacDrbg(seed, nonce0+i).
  void process_issuance(std::span<const IssueJob> burst, core::ExpTime now,
                        std::span<Result<Bytes>> results);

  /// Shutoff-verification twin (Fig 5 validation pipeline per request).
  /// Requires an AccountabilityAgent; results[i] is process(burst[i]).
  void process_shutoffs(std::span<const core::ShutoffRequest> burst,
                        core::ExpTime now, std::span<Result<void>> results);

  Stats stats() const;
  std::size_t threads() const { return group_.size(); }

 private:
  /// Issues burst[begin, end) against slot `slot`: one PoP batch
  /// verification over the chunk, then each request with its own
  /// (seed, nonce0 + index) DRBG and reply nonce.
  void issue_chunk(std::size_t slot, std::span<const IssueJob> burst,
                   std::size_t begin, std::size_t end, core::ExpTime now,
                   std::uint64_t nonce0, std::span<Result<Bytes>> results);

  struct alignas(64) Slot {
    mutable std::mutex mu;
    Stats stats;
    /// Worker-private DRBG (crypto::HmacDrbg, seeded per slot) for
    /// randomness that must never contend across threads and never shows
    /// up in deterministic outputs: the z coefficients of the chunk PoP
    /// batch verification. Owned exclusively by this slot's worker while a
    /// burst runs (crypto_concurrency_test stresses the no-sharing
    /// invariant under TSan).
    std::unique_ptr<crypto::Rng> drbg;
  };

  ManagementService& ms_;
  AccountabilityAgent* aa_;
  std::uint64_t rng_seed_;
  std::unique_ptr<Slot[]> slots_;  // one per group_ slot
  util::WorkerGroup group_;  // last: its workers stop before the slots go
};

}  // namespace apna::services

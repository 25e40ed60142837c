// issuance: Fig-3 sealed, PoP-signed EphIdRequests from many registered
// hosts through ServicePool (4 threads; the calling thread is the MS front),
// with a PersistCoordinator on MemVfs as the MS's sink. A burst's replies
// count as done once commit() returns. No router, no socket.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "persist/vfs.h"
#include "services/management_service.h"
#include "services/persist_coordinator.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "stats.h"
#include "timed_sink.h"
#include "trace.h"
#include "world.h"

namespace apnabench {

namespace {

using apna::ByteSpan;
using apna::Bytes;
using apna::Result;
namespace services = apna::services;
namespace persist = apna::persist;

constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kBurst = 64;          // closed-phase requests per call
constexpr std::size_t kOpenCap = 64;        // open phase: queued requests per call, max
constexpr std::size_t kRounds = 4;                  // (closed, open) rounds per run
constexpr std::size_t kRateWindowsPerRound = 5;     // closed-phase rate windows
constexpr std::size_t kLatencyWindowsPerRound = 8;  // open-phase latency windows
constexpr std::uint64_t kCheckEvery = 64;   // output-check sample: ~1 in 64
constexpr int kSetupReps = 3;

struct IssueWorld {
  IssueWorld(const IssueInputs& in, std::uint64_t seed)
      : as(kAidA, as_secrets(seed, kAidA)),
        rng(seed ^ 0x155e0000ull),
        coord(vfs, "/as-a", as),
        sink(coord) {
    register_hosts(as, in.hosts);
    aa_ident = services::make_service_identity(as, 1, kNow + 86400, 0, nullptr, rng);
    ms = std::make_unique<services::ManagementService>(
        as, loop, rng,
        services::make_service_identity(as, 2, kNow + 86400, 0,
                                        &aa_ident.cert.ephid, rng));
    if (!coord.start().ok()) throw std::runtime_error("persist start failed");
    ms->set_persist_sink(&sink);
    services::ServicePool::Config pc;
    pc.threads = kPoolThreads;
    pool = std::make_unique<services::ServicePool>(*ms, nullptr, pc);
  }

  core::AsState as;
  net::EventLoop loop;
  crypto::ChaChaRng rng;
  services::ServiceIdentity aa_ident;
  std::unique_ptr<services::ManagementService> ms;
  persist::MemVfs vfs;
  services::PersistCoordinator coord;
  TimedSink sink;
  std::unique_ptr<services::ServicePool> pool;
};

/// splitmix64: the seeded choice of which replies the output check opens.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Driver {
  Driver(const IssueInputs& in, IssueWorld& w, std::uint64_t seed, bool traced)
      : in(in), w(w), seed(seed), tracer(Role::generator, traced ? (1 << 17) : 0) {
    jobs.reserve(in.requests.size());
    for (const IssueRequestInput& r : in.requests)
      jobs.push_back({in.ctrl[r.host], ByteSpan(r.sealed)});
    burst.resize(std::max(kBurst, kOpenCap));
    results.assign(burst.size(), Result<Bytes>(apna::Errc::internal));
    stash.reserve(1 << 16);
  }

  /// One call: process the first `n` burst slots, then commit. Returns the
  /// call's end time.
  std::int64_t call(std::size_t n, bool traced) {
    const std::int64_t t0 = now_ns();
    if (traced) tracer.begin(Layer::services_issue, next_index, t0);
    w.pool->process_issuance({burst.data(), n}, kNow, {results.data(), n});
    const std::int64_t t1 = now_ns();
    if (traced) {
      tracer.end(t1);
      tracer.begin(Layer::persist_commit, next_index, t1);
    }
    if (!w.coord.commit().ok()) ++commit_failures;
    const std::int64_t t2 = now_ns();
    if (traced) tracer.end(t2);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t idx = next_index + i;
      if (!results[i].ok()) {
        ++failures;
      } else if (mix(seed ^ idx) % kCheckEvery == 0 && stash.size() < stash.capacity()) {
        stash.emplace_back(static_cast<std::uint32_t>(idx % jobs.size()),
                           std::move(results[i]));
      }
    }
    next_index += n;
    requests += n;
    return t2;
  }

  void run_closed(double seconds, WindowedCounter& rate, bool traced) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) {
      for (std::size_t i = 0; i < kBurst; ++i)
        burst[i] = jobs[(next_index + i) % jobs.size()];
      const std::uint64_t fail0 = failures;
      const std::int64_t t = call(kBurst, traced);
      rate.add(t, kBurst - (failures - fail0));
    }
  }

  /// Open loop over arrivals [first, last): arrival i is due at
  /// start + (arr[i] - arr[first]); each call serves whatever has arrived (up
  /// to kOpenCap); latency and queue wait are timed from the arrival.
  void run_open(std::size_t first, std::size_t last, std::int64_t start,
                WindowedSamples& latency, std::vector<double>& wait_us,
                std::uint64_t& open_calls, std::uint64_t& open_requests,
                bool traced) {
    const std::vector<std::int64_t>& arr = in.open_arrivals;
    const std::int64_t base = first < last ? arr[first] : 0;
    const auto due = [&](std::size_t i) { return start + (arr[i] - base); };
    std::size_t i = first;
    while (i < last) {
      const std::int64_t now = now_ns();
      if (due(i) > now) continue;  // idle front: spin until due
      std::size_t k = 0;
      while (i + k < last && due(i + k) <= now && k < kOpenCap) {
        burst[k] = jobs[(next_index + k) % jobs.size()];
        ++k;
      }
      const std::int64_t t_call = now_ns();
      const std::int64_t t_done = call(k, traced);
      for (std::size_t j = 0; j < k; ++j) {
        const std::int64_t sched = due(i + j);
        wait_us.push_back(static_cast<double>(t_call - sched) / 1e3);
        latency.add(sched, static_cast<double>(t_done - sched) / 1e3);
      }
      ++open_calls;
      open_requests += k;
      i += k;
    }
  }

  const IssueInputs& in;
  IssueWorld& w;
  std::uint64_t seed;
  Tracer tracer;
  std::vector<services::ServicePool::IssueJob> jobs;
  std::vector<services::ServicePool::IssueJob> burst;
  std::vector<Result<Bytes>> results;
  std::vector<std::pair<std::uint32_t, Result<Bytes>>> stash;  // request, reply
  std::uint64_t next_index = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t commit_failures = 0;
};

/// Opens a stashed reply as its host would and checks it end to end: the
/// reply opens under kHA, the certificate verifies under A's signing key,
/// and the certified EphID opens under A's codec to the requesting HID with
/// the requested keys. Outside the timed path.
bool reply_checks_out(const IssueInputs& in, IssueWorld& w, std::uint32_t req,
                      const Bytes& sealed) {
  const IssueRequestInput& r = in.requests[req];
  const HostInput& host = in.hosts[r.host];
  auto plain = core::open_control(host.keys, /*from_host=*/false, ByteSpan(sealed));
  if (!plain) return false;
  auto resp = core::decode_msg<core::EphIdResponse>(ByteSpan(*plain));
  if (!resp) return false;
  const core::EphIdCertificate& cert = resp->cert;
  if (!cert.verify(w.as.secrets.sign.pub, kNow).ok()) return false;
  if (cert.aid != kAidA || !(cert.pub == r.pub)) return false;
  auto opened = w.as.codec.open(cert.ephid);
  return opened.ok() && opened->hid == host.hid;
}

}  // namespace

void run_issuance(const Options& opt, Report& rep) {
  const IssueSpec spec = issue_spec(opt.small);
  const double open_rate = spec.open_rate_per_s;
  const double closed_s = 0.4 * opt.seconds;
  const double open_s = 0.5 * opt.seconds;
  const IssueInputs in =
      make_issue_inputs(spec.hosts, spec.requests, open_rate, opt.seed, open_s);

  // Set-up: AS keys, host registration, service identities, persist
  // start() (initial snapshot), the 4-thread pool and one warm-up burst.
  std::unique_ptr<IssueWorld> world;
  std::unique_ptr<Driver> drv;
  std::vector<double> setup_times;
  for (int r = 0; r < kSetupReps; ++r) {
    drv.reset();
    world.reset();
    const std::int64_t t0 = now_ns();
    world = std::make_unique<IssueWorld>(in, opt.seed);
    drv = std::make_unique<Driver>(in, *world, opt.seed, opt.trace);
    for (std::size_t i = 0; i < kBurst; ++i) drv->burst[i] = drv->jobs[i % drv->jobs.size()];
    drv->call(kBurst, false);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  IssueWorld& w = *world;
  Driver& d = *drv;
  const double setup_s = median(setup_times);

  // The warm-up burst is part of set-up, not of the measured totals.
  const std::uint64_t warm_failures = d.failures;
  d.requests = 0;
  d.stash.clear();

  const services::ManagementService::Stats ms0 = w.ms->stats();
  const services::ServicePool::Stats pool0 = w.pool->stats();
  const auto journal0 = w.coord.stats().journal;
  const std::uint64_t allocs0 = heap_allocs();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t front_cpu0 = thread_cpu_ns();
  const HostCpu host0 = host_cpu();
  const std::int64_t t_begin = now_ns();
  w.sink.timing.store(opt.trace);

  // kRounds rounds of (closed phase, open phase), so both figures sample
  // the whole run.
  std::vector<WindowedCounter> rate;
  std::vector<WindowedSamples> lat;
  std::vector<double> wait_us;
  wait_us.reserve(in.open_arrivals.size());
  std::uint64_t open_calls = 0, open_requests = 0;
  const std::size_t per_round = in.open_arrivals.size() / kRounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const double round_closed_s = closed_s / kRounds;
    rate.emplace_back(kRateWindowsPerRound, now_ns(),
                      static_cast<std::int64_t>(round_closed_s * 1e9));
    d.run_closed(round_closed_s, rate.back(), opt.trace);
    const std::size_t first = r * per_round;
    const std::size_t last = first + per_round;
    const std::int64_t open_start = now_ns() + 1'000'000;
    const std::int64_t span =
        per_round ? in.open_arrivals[last - 1] - in.open_arrivals[first] + 1 : 1;
    lat.emplace_back(kLatencyWindowsPerRound, open_start, span);
    d.run_open(first, last, open_start, lat.back(), wait_us, open_calls,
               open_requests, opt.trace);
  }

  w.sink.timing.store(false);
  const std::int64_t t_end = now_ns();
  const HostCpu host1 = host_cpu();
  const double wall = static_cast<double>(t_end - t_begin);
  const std::uint64_t allocs = heap_allocs() - allocs0;
  const std::int64_t cpu = process_cpu_ns() - cpu0;
  const std::int64_t front_cpu = thread_cpu_ns() - front_cpu0;
  const services::ManagementService::Stats ms1 = w.ms->stats();
  const services::ServicePool::Stats pool1 = w.pool->stats();
  const auto journal1 = w.coord.stats().journal;

  const double per_s = rate_over_windows(rate, kRateOverWindows);
  const double p50 = quantile_over_windows(lat, 0.5, kLatencyOverWindows, 500);
  const double p99 = quantile_over_windows(lat, 0.99, 0.5, 1000);
  std::size_t samples = 0;
  for (const WindowedSamples& l : lat) samples += l.count();
  rep.set("ops_per_s", per_s);
  rep.set("p50_us", p50);
  rep.set("p99_us", p99);
  rep.set("setup_s", setup_s);
  rep.named = {{"issue_per_s", per_s, "EphIDs/s"},
               {"issue_p50_us", p50, "us"},
               {"issue_p99_us", p99, "us"}};

  // Per-layer.
  const double reqs = static_cast<double>(d.requests);
  const auto& issue_tot = d.tracer.totals(Layer::services_issue);
  const auto& commit_tot = d.tracer.totals(Layer::persist_commit);
  rep.set("services.issue_ns_per_req",
          reqs == 0 ? 0.0 : static_cast<double>(issue_tot.total_ns) / reqs);
  rep.set("services.allocs_per_req", reqs == 0 ? 0.0 : static_cast<double>(allocs) / reqs);
  rep.set("services.issue_jobs_per_call",
          open_calls == 0 ? 0.0
                          : static_cast<double>(open_requests) / static_cast<double>(open_calls));
  rep.set("services.issue_wait_p50_us", percentile(wait_us, 0.5));
  rep.set("services.issue_wait_p99_us", percentile(wait_us, 0.99));
  const std::uint64_t ms_rejected =
      (ms1.rejected_expired - ms0.rejected_expired) +
      (ms1.rejected_unknown_host - ms0.rejected_unknown_host) +
      (ms1.rejected_bad_payload - ms0.rejected_bad_payload) +
      (ms1.rejected_revoked - ms0.rejected_revoked) +
      (ms1.rejected_bad_pop - ms0.rejected_bad_pop);
  const std::uint64_t failed_jobs = pool1.failed_jobs - pool0.failed_jobs;
  rep.set("services.issue_failed", static_cast<double>(failed_jobs + ms_rejected));
  const double recs = static_cast<double>(w.sink.records.load());
  rep.set("persist.append_ns", recs == 0 ? 0.0 : static_cast<double>(w.sink.ns.load()) / recs);
  rep.set("persist.commit_ns", commit_tot.spans == 0
                                   ? 0.0
                                   : static_cast<double>(commit_tot.total_ns) /
                                         static_cast<double>(commit_tot.spans));
  rep.set("persist.records", recs);
  rep.set("persist.bytes_per_record",
          recs == 0 ? 0.0 : static_cast<double>(w.sink.bytes.load()) / recs);
  rep.set("persist.degraded", w.coord.degraded() ? 1.0 : 0.0);
  rep.set("proc.cpu_per_wall", static_cast<double>(cpu) / wall);
  rep.set("proc.busy.generator", static_cast<double>(front_cpu) / wall);
  rep.set("proc.host_steal", steal_share(host0, host1));
  rep.info.emplace_back("host_steal_share", std::to_string(steal_share(host0, host1)));

  // Output checks.
  std::uint64_t bad_replies = 0;
  for (const auto& [req, reply] : d.stash)
    if (!reply.ok() || !reply_checks_out(in, w, req, *reply)) ++bad_replies;
  const std::uint64_t issued = ms1.issued - ms0.issued;
  const std::uint64_t journaled = journal1.appended - journal0.appended;
  rep.attempted = d.requests;
  rep.failed = (d.failures - warm_failures) + bad_replies + d.commit_failures;
  if (d.failures != warm_failures)
    rep.violation("issuance errors: " + std::to_string(d.failures - warm_failures));
  if (warm_failures) rep.violation("warm-up issuance errors: " + std::to_string(warm_failures));
  if (bad_replies)
    rep.violation("sampled replies failing the host-side check: " + std::to_string(bad_replies));
  if (d.stash.empty()) rep.violation("no reply was sampled for the output check");
  if (d.commit_failures) rep.violation("persist commit failures: " + std::to_string(d.commit_failures));
  if (issued != d.requests - (d.failures - warm_failures))
    rep.violation("MS issued count disagrees with the replies returned");
  if (journaled != issued || w.coord.degraded())
    rep.violation("journal records (" + std::to_string(journaled) +
                  ") differ from EphIDs issued (" + std::to_string(issued) + ")");
  if (open_rate >= per_s)
    rep.violation("open-loop rate is not below the closed-loop capacity");

  rep.info.emplace_back("threads", "4 (ServicePool threads=4; the calling thread is "
                                   "the MS front and one of the 4); no router, no socket");
  rep.info.emplace_back("router_calls", "0");
  rep.info.emplace_back("closed_burst", std::to_string(kBurst));
  rep.info.emplace_back("open_rate_per_s", std::to_string(open_rate));
  rep.info.emplace_back("replies_checked", std::to_string(d.stash.size()));
  rep.info.emplace_back("rounds", std::to_string(kRounds));
  rep.info.emplace_back("latency_samples", std::to_string(samples));
  if (opt.trace)
    write_trace(opt.trace_path,
                "{\"trace\":\"apnabench\",\"workload\":\"" + opt.workload + "\"}",
                {&d.tracer});
}

}  // namespace apnabench

// Forwarding workloads (fwd_hot_small, fwd_cold_large) and shutoff_storm:
// host → egress BR (AS A) → ingress BR (AS B) → host over loopback UDP.
//
// Threads: the calling thread is the generator (A-side senders and B-side
// sink); one thread per border router runs a drain-then-burst loop over its
// own UdpTransport and a 1-thread ForwardingPool; shutoff_storm adds one
// control thread feeding Fig-5 requests to a 1-thread ServicePool.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "core/as_directory.h"
#include "core/packet_auth.h"
#include "net/transport.h"
#include "persist/vfs.h"
#include "router/border_router.h"
#include "router/forwarding_pool.h"
#include "services/accountability_agent.h"
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
using apna::Result;
namespace router = apna::router;
namespace services = apna::services;
namespace persist = apna::persist;

constexpr std::size_t kBurstCap = 64;        // packets per process_* call, max
constexpr std::size_t kRxBatch = 32;         // datagrams per poll()
constexpr int kSpinPolls = 1 << 16;  // empty polls (~tens of ms) before blocking
constexpr std::size_t kClosedWindow = 256;   // closed-phase packets in flight
// A packet still missing this long after its send counts as lost. Loopback
// UDP delays but does not lose while a consumer keeps up; on a shared host a
// descheduled BR or generator thread holds packets for 100 ms and more, and
// a shorter timeout would report those delays as losses.
constexpr std::int64_t kLossTimeoutNs = 2'000'000'000;
constexpr std::uint64_t kSampleEvery = 8;    // traced per-hop timestamps
constexpr std::size_t kSpanCapacity = 1 << 17;  // kept per thread; totals exact
constexpr std::size_t kRateWindowsPerRound = 10;    // closed-phase rate windows
constexpr std::size_t kLatencyWindowsPerRound = 4;  // open-phase latency windows
constexpr std::size_t kStormWindows = 32;           // shutoff_storm latency windows
constexpr int kSetupReps = 3;
constexpr std::size_t kRounds = 4;          // (closed, open) rounds per run              // set-ups per run; median reported

/// The bench fields of a packet (seq ~0 for a payload too short to hold
/// them — never one of ours).
PayloadFields fields_of(const wire::PacketView& v) {
  const ByteSpan p = v.payload();
  if (p.size() < kPayloadFields) return PayloadFields{~0ull, 0, ~0u, Phase::warm};
  return read_payload(p.data());
}

struct Control {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<bool> tracing{false};
};

using SeqTime = std::pair<std::uint64_t, std::int64_t>;

/// Counters one BR thread keeps while `measuring`; read after join.
struct HopCounters {
  std::uint64_t calls = 0;
  std::uint64_t pkts = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t rx_polls = 0;   // traced: timed poll(0) calls that delivered
  std::uint64_t rx_pkts = 0;
  std::int64_t rx_ns = 0;
  std::uint64_t hid_sum = 0;    // ingress: HIDs handed to deliver_internal
  std::vector<SeqTime> rx_at;   // traced: sampled seq → delivery by poll
  std::vector<SeqTime> tx_at;   // traced: sampled seq → send() returned
};

/// One border router on its own thread and socket.
class BrHop {
 public:
  BrHop(Role role, core::AsState& as, Control& ctl, bool traced)
      : tracer(role, traced ? kSpanCapacity : 0), role_(role), ctl_(ctl) {
    net::UdpTransport::Config cfg;
    cfg.rx_batch = kRxBatch;
    cfg.so_rcvbuf = 4 << 20;
    auto sock = net::UdpTransport::open(cfg);
    if (!sock.ok()) throw std::runtime_error("UDP socket unavailable");
    sock_ = std::move(*sock);

    router::BorderRouter::Callbacks cb;
    cb.now = [] { return kNow; };
    if (role == Role::egress) {
      cb.send_external = [this](wire::PacketBuf p) { return forward(std::move(p)); };
      cb.deliver_internal = [](core::Hid, wire::PacketBuf) {
        return Result<void>(apna::Errc::no_route, "egress delivers nothing");
      };
    } else {
      cb.send_external = [](wire::PacketBuf) {
        return Result<void>(apna::Errc::no_route, "no transit");
      };
      cb.deliver_internal = [this](core::Hid hid, wire::PacketBuf p) {
        c.hid_sum += hid;
        return forward(std::move(p));
      };
    }
    br_ = std::make_unique<router::BorderRouter>(as, cb);
    router::ForwardingPool::Config pc;
    pc.threads = 1;
    pool_ = std::make_unique<router::ForwardingPool>(*br_, pc);
    owned_.reserve(kBurstCap + kRxBatch);
    views_.reserve(kBurstCap + kRxBatch);
    if (traced) {
      c.rx_at.reserve(1 << 18);
      c.tx_at.reserve(1 << 18);
    }
  }
  ~BrHop() { join(); }
  BrHop(const BrHop&) = delete;
  BrHop& operator=(const BrHop&) = delete;

  net::UdpTransport& sock() { return *sock_; }
  router::ForwardingPool& pool() { return *pool_; }
  void connect(net::PeerId next) { next_ = next; }
  void start() { th_ = std::thread([this] { loop(); }); }
  void join() {
    if (th_.joinable()) th_.join();
  }
  std::thread& thread() { return th_; }
  /// Egress, traced shutoff runs: last forward time per flow.
  void track_forwards(std::vector<std::int64_t>* last_fwd) { last_fwd_ = last_fwd; }

  Tracer tracer;
  HopCounters c;

 private:
  Role role_;
  Control& ctl_;

  Result<void> forward(wire::PacketBuf p) {
    if (!tracing_) return sock_->send(next_, std::move(p));
    const PayloadFields f = fields_of(p.view());
    tracer.begin(Layer::net_tx, f.seq, now_ns());
    Result<void> r = sock_->send(next_, std::move(p));
    const std::int64_t t = now_ns();
    tracer.end(t);
    if (f.phase == Phase::open && f.seq % kSampleEvery == 0 &&
        c.tx_at.size() < c.tx_at.capacity())
      c.tx_at.emplace_back(f.seq, t);
    if (last_fwd_ && f.flow < last_fwd_->size()) (*last_fwd_)[f.flow] = t;
    return r;
  }

  void loop() {
    sock_->set_rx([this](net::PeerId, wire::PacketBuf p) {
      if (tracing_) {
        const PayloadFields f = fields_of(p.view());
        if (f.phase == Phase::open && f.seq % kSampleEvery == 0 &&
            c.rx_at.size() < c.rx_at.capacity())
          c.rx_at.emplace_back(f.seq, now_ns());
      }
      views_.push_back(p.view());
      owned_.push_back(std::move(p));  // Bytes move: the view stays valid
    });
    const Layer layer =
        role_ == Role::egress ? Layer::router_egress : Layer::router_ingress;
    int idle = 0;
    while (!ctl_.stop.load(std::memory_order_relaxed)) {
      // Acquire: what the driver set up before flipping these (trace
      // buffers, track_forwards) is visible once they read true.
      const bool measuring = ctl_.measuring.load(std::memory_order_acquire);
      tracing_ = measuring && ctl_.tracing.load(std::memory_order_acquire);
      while (owned_.size() < kBurstCap) {
        const std::size_t before = owned_.size();
        const std::int64_t t0 = tracing_ ? now_ns() : 0;
        const std::size_t n = sock_->poll(0);
        if (n == 0) break;
        if (tracing_) {
          const std::int64_t t1 = now_ns();
          tracer.begin(Layer::net_rx, fields_of(views_[before]).seq, t0);
          tracer.end(t1);
          c.rx_ns += t1 - t0;
          ++c.rx_polls;
          c.rx_pkts += n;
        }
      }
      if (owned_.empty()) {
        if (++idle > kSpinPolls) (void)sock_->poll(1);
        continue;
      }
      idle = 0;
      const std::uint64_t copy0 = wire::copy_audit().copy_bytes;
      if (tracing_) tracer.begin(layer, fields_of(views_[0]).seq, now_ns());
      if (role_ == Role::egress)
        pool_->process_outgoing(views_, kNow);
      else
        pool_->process_ingress(views_, kNow);
      if (tracing_) tracer.end(now_ns());
      if (measuring) {
        ++c.calls;
        c.pkts += owned_.size();
        c.copy_bytes += wire::copy_audit().copy_bytes - copy0;
      }
      views_.clear();
      owned_.clear();  // PacketBuf dtors recycle into this thread's pool
    }
    sock_->set_rx({});
  }

  bool tracing_ = false;
  std::unique_ptr<net::UdpTransport> sock_;
  net::PeerId next_ = 0;
  std::unique_ptr<router::BorderRouter> br_;
  std::unique_ptr<router::ForwardingPool> pool_;
  std::vector<wire::PacketBuf> owned_;
  std::vector<wire::PacketView> views_;
  std::vector<std::int64_t>* last_fwd_ = nullptr;
  std::thread th_;
};

/// A's accountability side for shutoff_storm: AA + MS identities, the RPKI
/// stand-in with B's key, a 1-thread ServicePool and MemVfs persistence.
struct ShutoffSide {
  ShutoffSide(core::AsState& as_a, const core::AsSecrets& sec_b,
              std::uint64_t seed)
      : rng(seed ^ 0x5407f0ffull),
        aa_ident(services::make_service_identity(as_a, 1, kExp, 0, nullptr, rng)),
        ms_ident(services::make_service_identity(as_a, 2, kExp, 0,
                                                 &aa_ident.cert.ephid, rng)),
        coord(vfs, "/as-a", as_a),
        sink(coord) {
    core::AsPublicInfo info;
    info.aid = kAidB;
    info.sign_pub = sec_b.sign.pub;
    info.dh_pub = sec_b.dh.pub;
    directory.register_as(info);
    if (!coord.start().ok()) throw std::runtime_error("persist start failed");
    aa = std::make_unique<services::AccountabilityAgent>(as_a, directory, loop,
                                                         aa_ident);
    aa->set_persist_sink(&sink);
    ms = std::make_unique<services::ManagementService>(as_a, loop, rng, ms_ident);
    services::ServicePool::Config pc;
    pc.threads = 1;
    pool = std::make_unique<services::ServicePool>(*ms, aa.get(), pc);
  }

  crypto::ChaChaRng rng;
  net::EventLoop loop;
  core::AsDirectory directory;
  services::ServiceIdentity aa_ident;
  services::ServiceIdentity ms_ident;
  persist::MemVfs vfs;
  services::PersistCoordinator coord;
  TimedSink sink;
  std::unique_ptr<services::AccountabilityAgent> aa;
  std::unique_ptr<services::ManagementService> ms;
  std::unique_ptr<services::ServicePool> pool;
};

/// The served world: two ASes, their registered hosts, both BR threads,
/// the generator's two sockets and (shutoff_storm) A's accountability side.
class FwdWorld {
 public:
  FwdWorld(const FwdInputs& in, std::uint64_t seed, bool with_shutoff,
           bool traced)
      : as_a(kAidA, as_secrets(seed, kAidA)),
        as_b(kAidB, as_secrets(seed, kAidB)),
        egress(Role::egress, as_a, ctl, traced),
        ingress(Role::ingress, as_b, ctl, traced) {
    register_hosts(as_a, in.a_hosts);
    register_hosts(as_b, in.b_hosts);
    if (with_shutoff)
      shutoff = std::make_unique<ShutoffSide>(as_a, as_secrets(seed, kAidB), seed);

    net::UdpTransport::Config cfg;
    cfg.rx_batch = kRxBatch;
    cfg.so_rcvbuf = 4 << 20;
    auto tx = net::UdpTransport::open(cfg);
    auto rx = net::UdpTransport::open(cfg);
    if (!tx.ok() || !rx.ok()) throw std::runtime_error("UDP socket unavailable");
    gen_tx = std::move(*tx);
    sink = std::move(*rx);
    const auto to_egress = gen_tx->add_peer("127.0.0.1", egress.sock().local_port());
    const auto to_ingress =
        egress.sock().add_peer("127.0.0.1", ingress.sock().local_port());
    const auto to_sink = ingress.sock().add_peer("127.0.0.1", sink->local_port());
    if (!to_egress.ok() || !to_ingress.ok() || !to_sink.ok())
      throw std::runtime_error("UDP peer setup failed");
    egress_peer = *to_egress;
    egress.connect(*to_ingress);
    ingress.connect(*to_sink);
    egress.start();
    ingress.start();
    // One CPU per busy thread: generator 1, egress 2, ingress 3, control 0.
    pin_thread(&egress.thread(), 2);
    pin_thread(&ingress.thread(), 3);
    pin_thread(nullptr, 1);
  }

  ~FwdWorld() { stop(); }
  FwdWorld(const FwdWorld&) = delete;
  FwdWorld& operator=(const FwdWorld&) = delete;

  void stop() {
    ctl.stop.store(true);
    egress.join();
    ingress.join();
  }

  Control ctl;
  core::AsState as_a;
  core::AsState as_b;
  BrHop egress;
  BrHop ingress;
  std::unique_ptr<ShutoffSide> shutoff;
  std::unique_ptr<net::UdpTransport> gen_tx;
  std::unique_ptr<net::UdpTransport> sink;
  net::PeerId egress_peer = 0;
};

enum : std::uint8_t { kNone = 0, kInFlight = 1, kDelivered = 2, kLost = 3 };

/// The generator thread's state: seals and sends every packet, receives
/// every delivery at the sink, and checks each one.
class Generator {
 public:
  Generator(const FwdInputs& in, FwdWorld& w, std::size_t max_seqs, bool traced)
      : in_(in), w_(w), flow_(in.flows.size()) {
    // Per-host kHA CMAC schedules: the senders' side of the MAC.
    for (const HostInput& h : in.a_hosts)
      cmacs_.emplace_back(ByteSpan(h.keys.mac.data(), h.keys.mac.size()));
    wire::Packet p;
    p.src_aid = kAidA;
    p.dst_aid = kAidB;
    p.proto = wire::NextProto::data;
    p.payload.assign(std::max(in.spec.frame_bytes,
                              wire::kMinWireSize + kPayloadFields) -
                         wire::kMinWireSize,
                     0);
    scratch_ = p.seal();
    state_.assign(max_seqs, kNone);
    sent_at_.assign(kRing, 0);
    lateness_us_.reserve(in.open_schedule.size());
    if (traced) {
      tx_at_.reserve(in.open_schedule.size() / kSampleEvery + 16);
      rx_at_.reserve(in.open_schedule.size() / kSampleEvery + 16);
    }
    w_.sink->set_rx([this](net::PeerId, wire::PacketBuf p) { on_receive(p); });
  }
  ~Generator() { w_.sink->set_rx({}); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  struct FlowTally {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::int64_t last_rx_ns = 0;
    std::int64_t max_sched_delivered = 0;
  };

  bool full() const { return next_seq_ >= state_.size(); }

  /// Seals (MAC under the sender's kHA) and sends one packet now.
  void send(std::uint32_t flow, std::int64_t sched_ns, Phase phase) {
    const FlowInput& f = in_.flows[flow];
    const std::uint64_t seq = next_seq_++;
    apna::MutByteSpan b = scratch_.mutable_bytes();
    std::memcpy(b.data() + wire::kOffSrcEphid, f.src.data(), f.src.size());
    std::memcpy(b.data() + wire::kOffDstEphid, f.dst.data(), f.dst.size());
    write_payload(b.data() + wire::kMinWireSize,
                  PayloadFields{seq, sched_ns, flow, phase});
    apna::core::stamp_packet_mac(cmacs_[f.src_host], scratch_);
    state_[seq] = kInFlight;
    ++inflight_;
    ++flow_[flow].sent;
    const std::int64_t t0 = now_ns();
    sent_at_[seq & (kRing - 1)] = t0;
    // A failed send is counted by the transport (tx_errors) and shows up
    // as a lost packet.
    (void)w_.gen_tx->send_raw(w_.egress_peer, scratch_.view().bytes());
    if (tracing_ && phase == Phase::open && seq % kSampleEvery == 0)
      tx_at_.emplace_back(seq, now_ns());
    if (phase == Phase::open) lateness_us_.push_back((t0 - sched_ns) / 1e3);
  }

  std::size_t poll(int timeout_ms = 0) { return w_.sink->poll(timeout_ms); }

  /// Marks in-flight packets older than the loss timeout as lost. Called
  /// only when a poll found the sink socket empty, so a packet that arrived
  /// while this thread was not running is read before it can be declared lost.
  void reclaim(std::int64_t now) {
    while (oldest_ < next_seq_) {
      std::uint8_t& s = state_[oldest_];
      if (s == kInFlight) {
        const bool ring_wrapped = next_seq_ - oldest_ >= kRing;
        if (!ring_wrapped && now - sent_at_[oldest_ & (kRing - 1)] < kLossTimeoutNs)
          break;
        s = kLost;
        --inflight_;
        ++lost_;
      }
      ++oldest_;
    }
  }

  /// Polls until nothing is in flight or the loss timeout passes without a
  /// delivery; whatever is left counts as lost.
  void drain() {
    std::int64_t last = now_ns();
    while (inflight_ > 0) {
      if (poll(1) > 0) last = now_ns();
      if (now_ns() - last > kLossTimeoutNs) break;
    }
    reclaim(std::numeric_limits<std::int64_t>::max());
  }

  /// Warm-up: one packet of each of the first `n` flows, kClosedWindow in
  /// flight at a time, so steady-state cache behaviour is what gets measured.
  void warm_flows(std::size_t n) {
    n = std::min(n, in_.flows.size());
    for (std::size_t f = 0; f < n && !full(); ++f) {
      while (inflight_ >= kClosedWindow)
        if (poll() == 0) reclaim(now_ns());
      send(static_cast<std::uint32_t>(f), now_ns(), Phase::warm);
    }
    drain();
  }

  /// Closed loop: keeps kClosedWindow packets in flight for `seconds`.
  void run_closed(double seconds, WindowedCounter* rate) {
    closed_rate_ = rate;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now = start;
    while (now < end && !full()) {
      while (inflight_ < kClosedWindow && !full()) {
        send(in_.closed_order[closed_pos_++ % in_.closed_order.size()], now,
             rate ? Phase::closed : Phase::warm);
      }
      if (poll() == 0) reclaim(now_ns());
      now = now_ns();
    }
    drain();
    closed_rate_ = nullptr;
  }

  /// Open loop over the slots [first, last): slot i is due at
  /// start + (i.t_ns - first.t_ns) and sent then (back to back when the
  /// generator runs behind); each packet is timed from its due time. A
  /// catch-up burst polls the sink every kRxBatch sends, so the deliveries
  /// it causes cannot overflow the sink's socket buffer.
  void run_open(const Slot* first, const Slot* last, std::int64_t start,
                WindowedSamples* latency) {
    open_latency_ = latency;
    const std::int64_t base = first < last ? first->t_ns : 0;
    const Slot* next = first;
    std::int64_t next_reclaim = start;
    while (next < last && !full()) {
      std::int64_t now = now_ns();
      for (std::size_t burst = 1;
           next < last && start + (next->t_ns - base) <= now && !full(); ++burst) {
        send(next->flow, start + (next->t_ns - base), Phase::open);
        ++next;
        if (burst % kRxBatch == 0) poll();
        now = now_ns();
      }
      if (poll() == 0 && now >= next_reclaim) {
        reclaim(now);
        next_reclaim = now + 10'000'000;
      }
    }
    drain();
    open_latency_ = nullptr;
  }

  void set_tracing(bool on) { tracing_ = on; }

  // Results and check counters.
  const std::vector<FlowTally>& flows() const { return flow_; }
  std::uint64_t sent() const { return next_seq_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t unknown() const { return unknown_; }
  std::uint64_t wrong_content() const { return wrong_content_; }
  std::uint64_t expected_hid_sum() const { return expected_hid_sum_; }
  std::vector<double>& lateness_us() { return lateness_us_; }
  std::vector<SeqTime>& tx_at() { return tx_at_; }
  std::vector<SeqTime>& rx_at() { return rx_at_; }

 private:
  static constexpr std::size_t kRing = 1 << 20;

  void on_receive(const wire::PacketBuf& p) {
    const std::int64_t t = now_ns();
    const wire::PacketView& v = p.view();
    const PayloadFields f = fields_of(v);
    if (f.seq >= next_seq_ || f.flow >= in_.flows.size()) {
      ++unknown_;
      return;
    }
    std::uint8_t& s = state_[f.seq];
    if (s == kDelivered) {
      ++duplicates_;
      return;
    }
    if (s == kLost) return;  // reclaimed before it arrived: stays a loss
    s = kDelivered;
    --inflight_;
    ++delivered_;
    const FlowInput& fl = in_.flows[f.flow];
    if (std::memcmp(v.src_ephid_span().data(), fl.src.data(), 16) != 0 ||
        std::memcmp(v.dst_ephid_span().data(), fl.dst.data(), 16) != 0)
      ++wrong_content_;
    expected_hid_sum_ += in_.b_hosts[fl.dst_host].hid;
    FlowTally& ft = flow_[f.flow];
    ++ft.delivered;
    ft.last_rx_ns = t;
    ft.max_sched_delivered = std::max(ft.max_sched_delivered, f.sched_ns);
    if (f.phase == Phase::closed && closed_rate_) closed_rate_->add(t);
    if (f.phase == Phase::open && open_latency_) {
      open_latency_->add(f.sched_ns, static_cast<double>(t - f.sched_ns) / 1e3);
      if (tracing_ && f.seq % kSampleEvery == 0) rx_at_.emplace_back(f.seq, t);
    }
  }

  const FwdInputs& in_;
  FwdWorld& w_;
  std::deque<crypto::AesCmac> cmacs_;
  wire::PacketBuf scratch_;
  std::vector<std::uint8_t> state_;
  std::vector<std::int64_t> sent_at_;
  std::vector<FlowTally> flow_;
  std::vector<double> lateness_us_;
  std::vector<SeqTime> tx_at_;
  std::vector<SeqTime> rx_at_;
  WindowedCounter* closed_rate_ = nullptr;
  WindowedSamples* open_latency_ = nullptr;
  bool tracing_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t oldest_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t wrong_content_ = 0;
  std::uint64_t closed_pos_ = 0;
  std::uint64_t expected_hid_sum_ = 0;
};

/// Per-hop queue waits (previous hop's send returned → this hop's poll
/// delivered it), joined by packet seq over the sampled timestamps, µs.
void add_queue_waits(std::vector<SeqTime> from, std::vector<SeqTime> to,
                     std::vector<double>& out) {
  std::sort(from.begin(), from.end());
  std::sort(to.begin(), to.end());
  std::size_t j = 0;
  for (const SeqTime& a : from) {
    while (j < to.size() && to[j].first < a.first) ++j;
    if (j < to.size() && to[j].first == a.first)
      out.push_back(static_cast<double>(to[j].second - a.second) / 1e3);
  }
}

struct Snapshot {
  std::int64_t t = 0;
  std::int64_t proc_cpu = 0;
  std::int64_t gen_cpu = 0;
  std::int64_t egress_cpu = 0;
  std::int64_t ingress_cpu = 0;
  std::uint64_t allocs = 0;
  std::uint64_t epoch_a = 0;
  std::uint64_t epoch_b = 0;
  router::BorderRouter::Stats eg, in;
  core::FlowCache::Stats eg_cache, in_cache;
  net::TransportStats tx_gen;  // the generator's own socket (this thread's)
  HostCpu host;
};

Snapshot snapshot(FwdWorld& w) {
  Snapshot s;
  // Stats reads first: flow_cache_stats() may allocate, and must not count
  // against the measured window.
  s.eg = w.egress.pool().stats();
  s.in = w.ingress.pool().stats();
  s.eg_cache = w.egress.pool().flow_cache_stats();
  s.in_cache = w.ingress.pool().flow_cache_stats();
  s.tx_gen = w.gen_tx->stats();
  s.epoch_a = w.as_a.epoch.current();
  s.epoch_b = w.as_b.epoch.current();
  s.gen_cpu = thread_cpu_ns();
  s.egress_cpu = thread_cpu_ns(w.egress.thread());
  s.ingress_cpu = thread_cpu_ns(w.ingress.thread());
  s.proc_cpu = process_cpu_ns();
  s.allocs = heap_allocs();
  s.host = host_cpu();
  s.t = now_ns();
  return s;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// The measured world plus the figures every forwarding-shaped workload
/// shares.
struct FwdRun {
  std::unique_ptr<FwdWorld> world;
  std::unique_ptr<Generator> gen;
  double setup_s = 0;
};

/// Builds the served world `reps` times (the last one is kept) and reports
/// the median set-up time: AS keys, host registration, sockets, BR threads,
/// pools and a warm-up burst through the whole path.
FwdRun build(const FwdInputs& in, std::uint64_t seed, bool with_shutoff,
             std::size_t max_seqs, int reps, bool traced) {
  FwdRun run;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    run.gen.reset();
    run.world.reset();
    const std::int64_t t0 = now_ns();
    run.world = std::make_unique<FwdWorld>(in, seed, with_shutoff, traced);
    run.gen = std::make_unique<Generator>(in, *run.world, max_seqs, traced);
    run.gen->warm_flows(4096);           // first packets of (up to) 4096 flows
    run.gen->run_closed(0.05, nullptr);  // warm-up through the whole path
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.setup_s = median(times);
  return run;
}

void check_common(Report& rep, Generator& g, FwdWorld& w) {
  if (g.duplicates()) rep.violation("duplicate deliveries: " + std::to_string(g.duplicates()));
  if (g.unknown()) rep.violation("deliveries with unknown seq or flow: " + std::to_string(g.unknown()));
  if (g.wrong_content())
    rep.violation("deliveries whose EphIDs differ from their flow's: " +
                  std::to_string(g.wrong_content()));
  if (g.lost() == 0 && w.ingress.c.hid_sum != g.expected_hid_sum())
    rep.violation("ingress delivered to hosts other than the flows' receivers");
}

/// Fills the per-layer figures both forwarding shapes share, over the
/// measured window [a, b]. Runs after the BR threads have stopped: their
/// transports are single-threaded, so their counters (whole lifetime,
/// warm-up included) are read only then.
void per_layer_fwd(Report& rep, FwdWorld& w, Generator& g, const Snapshot& a,
                   const Snapshot& b, bool traced) {
  const double wall = static_cast<double>(b.t - a.t);
  const HopCounters& ec = w.egress.c;
  const HopCounters& ic = w.ingress.c;
  const double pkts = static_cast<double>(ec.pkts);
  const double hops_pkts = static_cast<double>(ec.pkts + ic.pkts);
  rep.set("net.rx_ns_per_pkt", ratio(static_cast<double>(ec.rx_ns + ic.rx_ns),
                                     static_cast<double>(ec.rx_pkts + ic.rx_pkts)));
  const auto& etx = w.egress.tracer.totals(Layer::net_tx);
  const auto& itx = w.ingress.tracer.totals(Layer::net_tx);
  rep.set("net.tx_ns_per_pkt", ratio(static_cast<double>(etx.total_ns + itx.total_ns),
                                     static_cast<double>(etx.spans + itx.spans)));
  rep.set("net.pkts_per_poll", ratio(static_cast<double>(ec.rx_pkts + ic.rx_pkts),
                                     static_cast<double>(ec.rx_polls + ic.rx_polls)));
  if (traced) {
    std::vector<double> waits;
    add_queue_waits(g.tx_at(), w.egress.c.rx_at, waits);
    add_queue_waits(w.egress.c.tx_at, w.ingress.c.rx_at, waits);
    add_queue_waits(w.ingress.c.tx_at, g.rx_at(), waits);
    rep.set("net.queue_wait_p50_us", percentile(waits, 0.5));
    rep.set("net.queue_wait_p99_us", percentile(waits, 0.99));
  }
  const net::TransportStats& eg_net = w.egress.sock().stats();
  const net::TransportStats& in_net = w.ingress.sock().stats();
  rep.set("net.rx_rejected", static_cast<double>(eg_net.rx_rejected + in_net.rx_rejected));
  rep.set("net.tx_errors",
          static_cast<double>((b.tx_gen.tx_errors - a.tx_gen.tx_errors) +
                              eg_net.tx_errors + in_net.tx_errors));
  rep.set("wire.copy_bytes_per_pkt",
          ratio(static_cast<double>(ec.copy_bytes + ic.copy_bytes), hops_pkts));
  rep.set("wire.allocs_per_pkt", ratio(static_cast<double>(b.allocs - a.allocs), pkts));
  const auto self_per_pkt = [&](BrHop& hop, Layer l) {
    return ratio(static_cast<double>(hop.tracer.totals(l).self_ns),
                 static_cast<double>(hop.c.pkts));
  };
  rep.set("router.egress_ns_per_pkt", self_per_pkt(w.egress, Layer::router_egress));
  rep.set("router.ingress_ns_per_pkt", self_per_pkt(w.ingress, Layer::router_ingress));
  rep.set("router.burst_pkts", ratio(hops_pkts, static_cast<double>(ec.calls + ic.calls)));
  core::FlowCache::Stats eg = b.eg_cache;
  eg -= a.eg_cache;
  core::FlowCache::Stats ig = b.in_cache;
  ig -= a.in_cache;
  rep.set("router.egress_hit_rate", eg.hit_rate());
  rep.set("router.ingress_hit_rate", ig.hit_rate());
  rep.set("router.evictions", static_cast<double>(eg.evictions + ig.evictions));
  rep.set("core.ephid_opens_per_pkt",
          ratio(static_cast<double>(eg.misses + ig.misses), hops_pkts));
  rep.set("router.stale_gen_misses", static_cast<double>(eg.stale_gen + ig.stale_gen));
  rep.set("core.epoch_bumps", static_cast<double>((b.epoch_a - a.epoch_a) +
                                                  (b.epoch_b - a.epoch_b)));
  router::BorderRouter::Stats es = b.eg;
  es -= a.eg;
  router::BorderRouter::Stats is = b.in;
  is -= a.in;
  rep.set("router.drops", static_cast<double>(es.total_drops() + is.total_drops()));
  rep.set("router.drop_revoked", static_cast<double>(es.drop_revoked + is.drop_revoked));
  const auto mem_a = w.as_a.host_db.memory_stats();
  const auto mem_b = w.as_b.host_db.memory_stats();
  rep.set("core.host_db_bytes_per_host",
          ratio(static_cast<double>(mem_a.total() + mem_b.total()),
                static_cast<double>(mem_a.hosts + mem_b.hosts)));
  std::vector<double> late = g.lateness_us();
  rep.set("gen.late_p99_us", percentile(late, 0.99));
  rep.set("gen.lost", static_cast<double>(g.lost()));
  rep.set("proc.cpu_per_wall", ratio(static_cast<double>(b.proc_cpu - a.proc_cpu), wall));
  rep.set("proc.busy.generator", ratio(static_cast<double>(b.gen_cpu - a.gen_cpu), wall));
  rep.set("proc.busy.egress", ratio(static_cast<double>(b.egress_cpu - a.egress_cpu), wall));
  rep.set("proc.busy.ingress",
          ratio(static_cast<double>(b.ingress_cpu - a.ingress_cpu), wall));
  rep.set("proc.host_steal", steal_share(a.host, b.host));
  rep.info.emplace_back("host_steal_share", std::to_string(steal_share(a.host, b.host)));
}

/// Datagram counts at each socket over the world's lifetime, read after the
/// BR threads have stopped. A gap between one hop's tx and the next one's rx
/// is a kernel socket drop; a gap inside a hop is the router's.
std::string hop_tally(FwdWorld& w) {
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  return "(datagrams: generator tx " + n(w.gen_tx->stats().tx_packets) + " -> egress rx " +
         n(w.egress.sock().stats().rx_packets) + ", tx " + n(w.egress.sock().stats().tx_packets) +
         " -> ingress rx " + n(w.ingress.sock().stats().rx_packets) + ", tx " +
         n(w.ingress.sock().stats().tx_packets) + " -> sink rx " +
         n(w.sink->stats().rx_packets) + ")";
}

/// Open-loop validity: a generator that is typically behind schedule by
/// more than the latency it measures has measured itself, not the path.
void check_open_validity(Report& rep, Generator& g, double lat_p50_us) {
  std::vector<double> late = g.lateness_us();
  const double late_p50 = percentile(late, 0.5);
  rep.info.emplace_back("gen.late_p50_us", std::to_string(late_p50));
  if (late_p50 > lat_p50_us)
    rep.violation("open loop invalid: generator late p50 " +
                  std::to_string(late_p50) + " us exceeds the measured p50 " +
                  std::to_string(lat_p50_us) + " us");
}

void run_forwarding(const Options& opt, Report& rep, const FwdSpec& spec) {
  const double closed_s = 0.4 * opt.seconds;
  const double open_s = 0.5 * opt.seconds;
  const FwdInputs in = make_fwd_inputs(spec, opt.seed, open_s);
  const std::size_t max_seqs = (8u << 20) + in.open_schedule.size();
  FwdRun run = build(in, opt.seed, false, max_seqs, kSetupReps, opt.trace);
  FwdWorld& w = *run.world;
  Generator& g = *run.gen;

  const Snapshot a = snapshot(w);
  w.ctl.tracing.store(opt.trace);
  w.ctl.measuring.store(true);
  g.set_tracing(opt.trace);

  // kRounds rounds of (closed phase, open phase), so both figures sample
  // the whole run.
  std::vector<WindowedCounter> rate;
  std::vector<WindowedSamples> lat;
  rate.reserve(kRounds);
  lat.reserve(kRounds);
  const std::size_t per_round = in.open_schedule.size() / kRounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const double round_closed_s = closed_s / kRounds;
    rate.emplace_back(kRateWindowsPerRound, now_ns(),
                      static_cast<std::int64_t>(round_closed_s * 1e9));
    g.run_closed(round_closed_s, &rate.back());
    const Slot* first = in.open_schedule.data() + r * per_round;
    const Slot* last = first + per_round;
    const std::int64_t open_start = now_ns() + 1'000'000;
    const std::int64_t span = per_round ? (last - 1)->t_ns - first->t_ns + 1 : 1;
    lat.emplace_back(kLatencyWindowsPerRound, open_start, span);
    g.run_open(first, last, open_start, &lat.back());
  }

  w.ctl.measuring.store(false);
  const Snapshot b = snapshot(w);
  w.stop();

  const double pps = rate_over_windows(rate, kRateOverWindows);
  const double p50 = quantile_over_windows(lat, 0.5, kLatencyOverWindows, 1000);
  const double p99 = quantile_over_windows(lat, 0.99, 0.5, 1000);
  std::size_t samples = 0;
  for (const WindowedSamples& l : lat) samples += l.count();
  rep.set("ops_per_s", pps);
  rep.set("p50_us", p50);
  rep.set("p99_us", p99);
  rep.set("setup_s", run.setup_s);
  rep.named = {{"fwd_pps", pps, "packets/s"},
               {"fwd_p50_us", p50, "us"},
               {"fwd_p99_us", p99, "us"}};
  per_layer_fwd(rep, w, g, a, b, opt.trace);

  // Output checks: every packet sent was delivered exactly once, to its
  // flow's receiver, with no drop of any reason at either router.
  router::BorderRouter::Stats es = b.eg;
  es -= a.eg;
  router::BorderRouter::Stats is = b.in;
  is -= a.in;
  check_common(rep, g, w);
  const std::uint64_t tx_errors = static_cast<std::uint64_t>(rep.values["net.tx_errors"]);
  rep.attempted = g.sent();
  rep.failed = g.lost() + es.total_drops() + is.total_drops() + tx_errors;
  if (es.total_drops() + is.total_drops() > 0)
    rep.violation("router drops on a forwarding workload: " +
                  std::to_string(es.total_drops() + is.total_drops()));
  if (g.lost() > 0)
    rep.violation("lost packets: " + std::to_string(g.lost()) + " " + hop_tally(w));
  if (tx_errors > 0) rep.violation("transport tx errors: " + std::to_string(tx_errors));
  if (b.epoch_a != a.epoch_a || b.epoch_b != a.epoch_b)
    rep.violation("verdict epoch moved on a forwarding workload");
  if (spec.open_rate_pps >= pps)
    rep.violation("open-loop rate " + std::to_string(spec.open_rate_pps) +
                  " pkt/s is not below the closed-loop capacity " +
                  std::to_string(pps));
  check_open_validity(rep, g, p50);

  rep.info.emplace_back("threads", "3 (generator+sink, egress BR, ingress BR); "
                                   "ForwardingPool threads=1 per BR");
  rep.info.emplace_back("closed_window_pkts", std::to_string(kClosedWindow));
  rep.info.emplace_back("open_rate_pps", std::to_string(spec.open_rate_pps));
  rep.info.emplace_back("frame_bytes", std::to_string(spec.frame_bytes));
  rep.info.emplace_back("flows", std::to_string(spec.flows));
  rep.info.emplace_back("rounds", std::to_string(kRounds));
  rep.info.emplace_back("latency_samples", std::to_string(samples));
  if (opt.trace) {
    write_trace(opt.trace_path,
                "{\"trace\":\"apnabench\",\"workload\":\"" + opt.workload + "\"}",
                {&w.egress.tracer, &w.ingress.tracer});
  }
}

}  // namespace

void run_fwd_hot_small(const Options& opt, Report& rep) {
  run_forwarding(opt, rep, hot_small_spec(opt.small));
}

void run_fwd_cold_large(const Options& opt, Report& rep) {
  run_forwarding(opt, rep, cold_large_spec(opt.small));
}

void run_shutoff_storm(const Options& opt, Report& rep) {
  const double open_s = 0.9 * opt.seconds;
  const ShutoffSpec spec = shutoff_spec(opt.small);
  const ShutoffInputs in = make_shutoff_inputs(spec, opt.seed, open_s);
  const std::size_t max_seqs = (1u << 20) + in.fwd.open_schedule.size();
  FwdRun run = build(in.fwd, opt.seed, true, max_seqs, kSetupReps, opt.trace);
  FwdWorld& w = *run.world;
  Generator& g = *run.gen;
  ShutoffSide& side = *w.shutoff;

  std::vector<std::int64_t> last_fwd(in.fwd.flows.size(), 0);
  if (opt.trace) w.egress.track_forwards(&last_fwd);

  const services::AccountabilityAgent::Stats aa0 = side.aa->stats();
  const Snapshot a = snapshot(w);
  w.ctl.tracing.store(opt.trace);
  w.ctl.measuring.store(true);
  g.set_tracing(opt.trace);
  side.sink.timing.store(opt.trace);

  const std::int64_t start = now_ns() + 2'000'000;
  std::vector<WindowedSamples> fwd_lat;
  fwd_lat.emplace_back(kStormWindows, start, static_cast<std::int64_t>(open_s * 1e9));

  // Control thread: hands each Fig-5 request to the AA when it is due.
  struct Outcome {
    std::int64_t handed = 0;
    std::int64_t returned = 0;
    bool ok = false;
  };
  std::vector<Outcome> out(in.requests.size());
  Tracer ctl_tracer(Role::control, opt.trace ? in.requests.size() : 0);
  std::int64_t ctl_cpu = 0;
  std::thread control([&] {
    pin_thread(nullptr, 0);
    const std::int64_t cpu0 = thread_cpu_ns();
    Result<void> res = Result<void>::success();
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
      const std::int64_t due = start + in.requests[i].t_ns;
      while (now_ns() < due - 200'000)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      while (now_ns() < due) {
      }
      Outcome& o = out[i];
      o.handed = now_ns();
      if (opt.trace) ctl_tracer.begin(Layer::services_shutoff, i, o.handed);
      side.pool->process_shutoffs(std::span(&in.requests[i].req, 1), kNow,
                                  std::span(&res, 1));
      o.returned = now_ns();
      if (opt.trace) ctl_tracer.end(o.returned);
      o.ok = res.ok();
    }
    ctl_cpu = thread_cpu_ns() - cpu0;
  });
  const std::vector<Slot>& sched = in.fwd.open_schedule;
  g.run_open(sched.data(), sched.data() + sched.size(), start, &fwd_lat.back());
  control.join();

  w.ctl.measuring.store(false);
  side.sink.timing.store(false);
  const Snapshot b = snapshot(w);
  w.stop();

  // Shutoff latency: from the request's scheduled arrival until the AA has
  // returned AND the sink has seen the flow's last packet.
  std::vector<WindowedSamples> stop_lat;
  stop_lat.emplace_back(kStormWindows, start, static_cast<std::int64_t>(open_s * 1e9));
  std::vector<double> revoke_effect, valid_ns, forged_ns, ctl_late_us;
  std::uint64_t valid_rejected = 0, forged_accepted = 0, kept_arriving = 0;
  std::uint64_t lost_attack = 0, lost_other = 0, valid_n = 0;
  std::vector<bool> attack_flow(in.fwd.flows.size(), false);
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const ShutoffRequestInput& r = in.requests[i];
    const Outcome& o = out[i];
    const auto& ft = g.flows()[r.flow];
    const double cost = static_cast<double>(o.returned - o.handed);
    ctl_late_us.push_back(static_cast<double>(o.handed - (start + r.t_ns)) / 1e3);
    if (r.valid) {
      ++valid_n;
      attack_flow[r.flow] = true;
      valid_ns.push_back(cost);
      if (!o.ok) ++valid_rejected;
      const std::int64_t sched = start + r.t_ns;
      const std::int64_t stopped = std::max(o.returned, ft.last_rx_ns);
      stop_lat.back().add(sched, static_cast<double>(stopped - sched) / 1e3);
      if (ft.max_sched_delivered > o.returned) ++kept_arriving;
      if (opt.trace && last_fwd[r.flow] > 0)
        revoke_effect.push_back(
            static_cast<double>(std::max<std::int64_t>(0, last_fwd[r.flow] - o.returned)) / 1e3);
    } else {
      forged_ns.push_back(cost);
      if (o.ok) ++forged_accepted;
    }
  }
  for (std::size_t f = 0; f < g.flows().size(); ++f) {
    const auto& ft = g.flows()[f];
    (attack_flow[f] ? lost_attack : lost_other) += ft.sent - ft.delivered;
  }

  const double p50 = quantile_over_windows(stop_lat, 0.5, kLatencyOverWindows, 100);
  const double p99 = pooled(stop_lat, 0.99);
  const double fwd_p50 = quantile_over_windows(fwd_lat, 0.5, kLatencyOverWindows, 1000);
  const double fwd_p99 = quantile_over_windows(fwd_lat, 0.99, 0.5, 1000);
  const double goodput =
      static_cast<double>(g.delivered()) / open_s;  // offered minus revoked
  // The gated latency is the traffic's: the AA's own latency follows the
  // host's compute speed, which on a shared VM moved its run median by 1.5x
  // for minutes at a time, beyond any bound a regression gate can hold.
  rep.set("ops_per_s", goodput);
  rep.set("p50_us", fwd_p50);
  rep.set("p99_us", fwd_p99);
  rep.set("setup_s", run.setup_s);
  rep.set("gen.fwd_p50_us", fwd_p50);
  rep.set("gen.fwd_p99_us", fwd_p99);
  rep.named = {{"shutoff_p50_us", p50, "us"},
               {"shutoff_p99_us", p99, "us"},
               {"fwd_p50_us", fwd_p50, "us"},
               {"fwd_p99_us", fwd_p99, "us"},
               {"delivered_pps", goodput, "packets/s"}};
  per_layer_fwd(rep, w, g, a, b, opt.trace);
  rep.set("router.revoke_effect_p50_us", percentile(revoke_effect, 0.5));
  rep.set("router.revoke_effect_p99_us", percentile(revoke_effect, 0.99));
  rep.set("services.shutoff_valid_ns", median(valid_ns));
  rep.set("services.shutoff_forged_ns", median(forged_ns));
  const services::AccountabilityAgent::Stats aa1 = side.aa->stats();
  const std::uint64_t aa_rejected =
      (aa1.rejected_bad_cert - aa0.rejected_bad_cert) +
      (aa1.rejected_bad_sig - aa0.rejected_bad_sig) +
      (aa1.rejected_unauthorized - aa0.rejected_unauthorized) +
      (aa1.rejected_not_our_host - aa0.rejected_not_our_host) +
      (aa1.rejected_bad_mac - aa0.rejected_bad_mac) +
      (aa1.rejected_malformed - aa0.rejected_malformed);
  rep.set("services.aa_accepted", static_cast<double>(aa1.accepted - aa0.accepted));
  rep.set("services.aa_rejected", static_cast<double>(aa_rejected));
  rep.set("persist.append_ns", ratio(static_cast<double>(side.sink.ns.load()),
                                     static_cast<double>(side.sink.records.load())));
  rep.set("persist.records", static_cast<double>(side.sink.records.load()));
  rep.set("persist.bytes_per_record",
          ratio(static_cast<double>(side.sink.bytes.load()),
                static_cast<double>(side.sink.records.load())));
  rep.set("persist.degraded", side.coord.degraded() ? 1.0 : 0.0);
  rep.set("proc.busy.control",
          ratio(static_cast<double>(ctl_cpu), static_cast<double>(b.t - a.t)));

  // Output checks.
  router::BorderRouter::Stats es = b.eg;
  es -= a.eg;
  router::BorderRouter::Stats is = b.in;
  is -= a.in;
  check_common(rep, g, w);
  const std::uint64_t tx_errors = static_cast<std::uint64_t>(rep.values["net.tx_errors"]);
  const std::uint64_t other_drops = es.total_drops() - es.drop_revoked + is.total_drops();
  const std::uint64_t unexplained =
      lost_attack > es.drop_revoked ? lost_attack - es.drop_revoked
                                    : es.drop_revoked - lost_attack;
  rep.attempted = g.sent() + in.requests.size();
  rep.failed = lost_other + unexplained + other_drops + tx_errors + valid_rejected +
               forged_accepted + kept_arriving;
  if (valid_rejected) rep.violation("valid shutoffs rejected: " + std::to_string(valid_rejected));
  if (forged_accepted) rep.violation("forged shutoffs accepted: " + std::to_string(forged_accepted));
  if (kept_arriving)
    rep.violation("shut-off flows still arriving after the AA returned: " +
                  std::to_string(kept_arriving));
  if (lost_other)
    rep.violation("packets lost on flows never shut off: " + std::to_string(lost_other) + " " +
                  hop_tally(w));
  if (unexplained)
    rep.violation("shut-off flows' losses differ from drop_revoked by " +
                  std::to_string(unexplained));
  if (other_drops) rep.violation("drops other than revoked: " + std::to_string(other_drops));
  if (tx_errors) rep.violation("transport tx errors: " + std::to_string(tx_errors));
  if (b.epoch_a == a.epoch_a) rep.violation("no epoch bump during the shutoff storm");
  if (valid_n < 1000 && !opt.small)
    rep.violation("fewer than 1000 valid shutoffs: p99 would rest on < 10 samples");
  check_open_validity(rep, g, fwd_p50);

  rep.info.emplace_back("threads", "4 (generator+sink, egress BR, ingress BR, "
                                   "control); ForwardingPool threads=1 per BR, "
                                   "ServicePool threads=1");
  rep.info.emplace_back("open_rate_pps", std::to_string(spec.traffic.open_rate_pps) +
                                             " benign + " + std::to_string(spec.attack_pps) +
                                             " per active attacker/decoy flow");
  rep.info.emplace_back("shutoffs_per_s", std::to_string(spec.shutoffs_per_s));
  rep.info.emplace_back("forged_share", std::to_string(spec.forged_share));
  rep.info.emplace_back("valid_shutoffs", std::to_string(valid_n));
  rep.info.emplace_back("control_late_p50_us", std::to_string(percentile(ctl_late_us, 0.5)));
  rep.info.emplace_back("control_late_p99_us", std::to_string(percentile(ctl_late_us, 0.99)));
  rep.info.emplace_back("aa_call_p50_us", std::to_string(percentile(valid_ns, 0.5) / 1e3));
  if (opt.trace) {
    write_trace(opt.trace_path,
                "{\"trace\":\"apnabench\",\"workload\":\"" + opt.workload + "\"}",
                {&w.egress.tracer, &w.ingress.tracer, &ctl_tracer});
  }
}

}  // namespace apnabench

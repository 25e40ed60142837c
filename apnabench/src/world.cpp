#include "world.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/ephid.h"
#include "core/packet_auth.h"
#include "wire/msg_codec.h"

namespace apnabench {

namespace {

using apna::ByteSpan;
using apna::Bytes;
using apna::MutByteSpan;

/// Independent deterministic streams per (seed, purpose).
crypto::ChaChaRng stream(std::uint64_t seed, std::uint64_t purpose) {
  std::uint8_t buf[16];
  std::memcpy(buf, &seed, 8);
  std::memcpy(buf + 8, &purpose, 8);
  return crypto::ChaChaRng(ByteSpan(buf, sizeof buf));
}

std::mt19937_64 schedule_rng(std::uint64_t seed, std::uint64_t purpose) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(purpose)};
  return std::mt19937_64(seq);
}

core::EphIdCodec codec_of(const core::AsSecrets& s) {
  return core::EphIdCodec(ByteSpan(s.ka.data(), s.ka.size()));
}

/// A sealed data packet of `flow` (payload zero-filled past the bench
/// fields), MAC-stamped under the sender's kHA.
Bytes sealed_packet(const FlowInput& flow, const HostInput& sender,
                    std::size_t frame_bytes, const PayloadFields& fields) {
  wire::Packet p;
  p.src_aid = kAidA;
  p.dst_aid = kAidB;
  p.src_ephid = flow.src;
  p.dst_ephid = flow.dst;
  p.proto = wire::NextProto::data;
  p.payload.assign(std::max(frame_bytes, wire::kMinWireSize + kPayloadFields) -
                       wire::kMinWireSize,
                   0);
  write_payload(p.payload.data(), fields);
  core::stamp_packet_mac(
      crypto::AesCmac(ByteSpan(sender.keys.mac.data(), sender.keys.mac.size())),
      p);
  const wire::PacketBuf buf = p.seal();
  const ByteSpan b = buf.view().bytes();
  return Bytes(b.begin(), b.end());
}

/// Zipf(s) over ranks [0, n): P(k) is proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(std::mt19937_64& g) const;

 private:
  std::vector<double> cdf_;
};

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::draw(std::mt19937_64& g) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(g);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace

core::AsSecrets as_secrets(std::uint64_t seed, core::Aid aid) {
  crypto::ChaChaRng rng = stream(seed, 0xA5000000ull + aid);
  return core::AsSecrets::generate(rng);
}

std::vector<HostInput> make_hosts(crypto::Rng& rng, core::Hid first,
                                  std::size_t n) {
  std::vector<HostInput> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    crypto::SharedSecret dh{};
    rng.fill(MutByteSpan(dh.data(), dh.size()));
    out[i].hid = first + static_cast<core::Hid>(i);
    out[i].keys = core::HostAsKeys::derive(dh);
  }
  return out;
}

void register_hosts(core::AsState& as, const std::vector<HostInput>& hosts) {
  for (const HostInput& h : hosts) {
    core::HostRecord rec;
    rec.hid = h.hid;
    rec.keys = h.keys;
    rec.subscriber_id = 1;
    as.host_db.upsert(std::move(rec));
  }
}

void write_payload(std::uint8_t* p, const PayloadFields& f) {
  std::memcpy(p, &f.seq, 8);
  std::memcpy(p + 8, &f.sched_ns, 8);
  std::memcpy(p + 16, &f.flow, 4);
  p[20] = static_cast<std::uint8_t>(f.phase);
  p[21] = p[22] = p[23] = 0;
}

PayloadFields read_payload(const std::uint8_t* p) {
  PayloadFields f;
  std::memcpy(&f.seq, p, 8);
  std::memcpy(&f.sched_ns, p + 8, 8);
  std::memcpy(&f.flow, p + 16, 4);
  f.phase = static_cast<Phase>(p[20]);
  return f;
}

FwdInputs make_fwd_inputs(const FwdSpec& spec, std::uint64_t seed,
                          double open_s) {
  FwdInputs in;
  in.spec = spec;
  crypto::ChaChaRng keys = stream(seed, 1);
  in.a_hosts = make_hosts(keys, 1000, spec.a_hosts);
  in.b_hosts = make_hosts(keys, 1000, spec.b_hosts);

  const core::EphIdCodec codec_a = codec_of(as_secrets(seed, kAidA));
  const core::EphIdCodec codec_b = codec_of(as_secrets(seed, kAidB));
  crypto::ChaChaRng ivs = stream(seed, 2);
  in.flows.resize(spec.flows);
  for (std::size_t i = 0; i < spec.flows; ++i) {
    FlowInput& f = in.flows[i];
    f.src_host = static_cast<std::uint32_t>(i % spec.a_hosts);
    f.dst_host = static_cast<std::uint32_t>(ivs.uniform(spec.b_hosts));
    f.src = codec_a.issue(in.a_hosts[f.src_host].hid, kExp, ivs).bytes;
    f.dst = codec_b.issue(in.b_hosts[f.dst_host].hid, kExp, ivs).bytes;
  }

  // Popularity: Zipf over a seeded permutation of the flows, so the hot
  // flows are spread over hosts; uniform when zipf_s == 0.
  std::mt19937_64 g = schedule_rng(seed, 3);
  std::vector<std::uint32_t> rank_to_flow(spec.flows);
  std::iota(rank_to_flow.begin(), rank_to_flow.end(), 0u);
  std::shuffle(rank_to_flow.begin(), rank_to_flow.end(), g);
  const Zipf zipf(spec.flows, spec.zipf_s > 0 ? spec.zipf_s : 1.0);
  const auto draw = [&]() -> std::uint32_t {
    if (spec.zipf_s <= 0)
      return static_cast<std::uint32_t>(g() % spec.flows);
    return rank_to_flow[zipf.draw(g)];
  };
  in.closed_order.resize(std::size_t{1} << 20);
  for (std::uint32_t& f : in.closed_order) f = draw();

  const double interval_ns = 1e9 / spec.open_rate_pps;
  const auto n = static_cast<std::size_t>(spec.open_rate_pps * open_s);
  in.open_schedule.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.open_schedule[i].t_ns =
        static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    in.open_schedule[i].flow = draw();
  }
  return in;
}

ShutoffInputs make_shutoff_inputs(const ShutoffSpec& spec, std::uint64_t seed,
                                  double open_s) {
  ShutoffInputs in;
  in.fwd = make_fwd_inputs(spec.traffic, seed, open_s);
  FwdInputs& fwd = in.fwd;

  const core::AsSecrets sec_b = as_secrets(seed, kAidB);
  const core::EphIdCodec codec_a = codec_of(as_secrets(seed, kAidA));
  const core::EphIdCodec codec_b = codec_of(sec_b);
  crypto::ChaChaRng rng = stream(seed, 4);

  // Two victims in B, each holding a B-certified EphID: requests name the
  // first; non-recipient forgeries cite packets aimed at the second.
  const std::vector<HostInput> victims =
      make_hosts(rng, 1000 + static_cast<core::Hid>(fwd.b_hosts.size()), 2);
  std::array<core::EphIdKeyPair, 2> victim_kp;
  std::array<core::EphIdCertificate, 2> victim_cert;
  for (std::size_t v = 0; v < 2; ++v) {
    victim_kp[v] = core::EphIdKeyPair::generate(rng);
    core::EphIdCertificate& c = victim_cert[v];
    c.ephid = codec_b.issue(victims[v].hid, kExp, rng);
    c.exp_time = kExp;
    c.pub = victim_kp[v].pub;
    c.aid = kAidB;
    c.aa_ephid = c.ephid;
    c.sign_with(sec_b.sign);
  }
  const auto victim_index = static_cast<std::uint32_t>(fwd.b_hosts.size());
  fwd.b_hosts.insert(fwd.b_hosts.end(), victims.begin(), victims.end());

  const double gap_s = 0.05;  // quiet margin at both ends of the phase
  const auto n_req = static_cast<std::size_t>(std::max(
      0.0, (open_s - spec.lead_s - spec.tail_s - 2 * gap_s) *
               spec.shutoffs_per_s));
  const auto forged_period = static_cast<std::size_t>(
      std::lround(1.0 / std::max(spec.forged_share, 1e-9)));
  const std::vector<HostInput> senders =
      make_hosts(rng, 1000 + static_cast<core::Hid>(fwd.a_hosts.size()), n_req);
  const auto sender_base = static_cast<std::uint32_t>(fwd.a_hosts.size());
  fwd.a_hosts.insert(fwd.a_hosts.end(), senders.begin(), senders.end());

  std::size_t forged_seen = 0;
  for (std::size_t j = 0; j < n_req; ++j) {
    const bool forged = forged_period > 0 && j % forged_period == forged_period - 1;
    // Forgeries alternate: bad signature (evidence aimed at the victim,
    // signed by a key that is not the victim's) and non-recipient (evidence
    // aimed at the second victim, signed by the first).
    const bool non_recipient = forged && (forged_seen++ % 2 == 1);
    FlowInput f;
    f.src_host = sender_base + static_cast<std::uint32_t>(j);
    f.dst_host = victim_index + (non_recipient ? 1u : 0u);
    f.src = codec_a.issue(fwd.a_hosts[f.src_host].hid, kExp, rng).bytes;
    f.dst = victim_cert[non_recipient ? 1 : 0].ephid.bytes;
    const auto flow = static_cast<std::uint32_t>(fwd.flows.size());
    fwd.flows.push_back(f);

    ShutoffRequestInput r;
    r.flow = flow;
    r.valid = !forged;
    r.t_ns = static_cast<std::int64_t>(
        (gap_s + spec.lead_s + static_cast<double>(j) / spec.shutoffs_per_s) *
        1e9);
    r.req.offending_packet = sealed_packet(
        f, fwd.a_hosts[f.src_host], spec.traffic.frame_bytes,
        PayloadFields{0, 0, flow, Phase::warm});
    const ByteSpan evidence(r.req.offending_packet);
    if (forged && !non_recipient) {
      r.req.sig = core::EphIdKeyPair::generate(rng).sign(evidence);
    } else {
      r.req.sig = victim_kp[0].sign(evidence);
    }
    r.req.dst_cert = victim_cert[0];
    const std::int64_t t_req = r.t_ns;
    in.requests.push_back(std::move(r));

    // The flow's packets: active from lead_s before the request to tail_s
    // after it.
    const double step_ns = 1e9 / spec.attack_pps;
    const auto first = t_req - static_cast<std::int64_t>(spec.lead_s * 1e9);
    const auto last = t_req + static_cast<std::int64_t>(spec.tail_s * 1e9);
    for (double t = static_cast<double>(first); t <= static_cast<double>(last);
         t += step_ns)
      fwd.open_schedule.push_back(Slot{static_cast<std::int64_t>(t), flow});
  }
  std::stable_sort(fwd.open_schedule.begin(), fwd.open_schedule.end(),
                   [](const Slot& a, const Slot& b) { return a.t_ns < b.t_ns; });
  return in;
}

IssueInputs make_issue_inputs(std::size_t hosts, std::size_t requests,
                              double open_rate_per_s, std::uint64_t seed,
                              double open_s) {
  IssueInputs in;
  crypto::ChaChaRng rng = stream(seed, 5);
  in.hosts = make_hosts(rng, 1000, hosts);
  const core::EphIdCodec codec_a = codec_of(as_secrets(seed, kAidA));
  in.ctrl.reserve(hosts);
  for (const HostInput& h : in.hosts)
    in.ctrl.push_back(codec_a.issue(h.hid, kNow + 86400, rng));

  in.requests.resize(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    IssueRequestInput& r = in.requests[i];
    r.host = static_cast<std::uint32_t>(rng.uniform(hosts));
    const core::EphIdKeyPair kp = core::EphIdKeyPair::generate(rng);
    core::EphIdRequest req;
    req.ephid_pub = kp.pub;
    req.lifetime = core::EphIdLifetime::short_term;
    req.pop_sig = kp.sign(req.pop_tbs());
    wire::MsgWriter plain(160);
    req.encode(plain);
    r.sealed = core::seal_control(in.hosts[r.host].keys, i + 1,
                                  /*from_host=*/true, plain.span());
    r.pub = kp.pub;
  }

  const auto n = static_cast<std::size_t>(open_rate_per_s * open_s);
  in.open_arrivals.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    in.open_arrivals[i] = static_cast<std::int64_t>(
        static_cast<double>(i) * 1e9 / open_rate_per_s);
  return in;
}

FwdSpec hot_small_spec(bool small) {
  FwdSpec s;
  s.frame_bytes = 128;
  s.a_hosts = small ? 256 : 1024;
  s.b_hosts = small ? 256 : 1024;
  s.flows = 4096;
  s.zipf_s = 1.1;
  s.open_rate_pps = 30000;
  return s;
}

FwdSpec cold_large_spec(bool small) {
  FwdSpec s;
  s.frame_bytes = 1400;
  s.a_hosts = small ? 2048 : 16384;
  s.b_hosts = small ? 2048 : 16384;
  s.flows = small ? 16384 : 65536;  // >= 16x the 4096-entry FlowCache
  s.zipf_s = 0;
  s.open_rate_pps = 20000;
  return s;
}

ShutoffSpec shutoff_spec(bool small) {
  ShutoffSpec s;
  s.traffic = hot_small_spec(small);
  s.shutoffs_per_s = small ? 100 : 400;
  s.forged_share = 0.25;
  s.attack_pps = 1000;
  s.lead_s = 0.02;
  s.tail_s = 0.01;
  return s;
}

IssueSpec issue_spec(bool small) {
  IssueSpec s;
  s.hosts = small ? 256 : 4096;
  s.requests = small ? 256 : 4096;
  s.open_rate_per_s = small ? 1000 : 2000;
  return s;
}

// ---- Digests ----------------------------------------------------------------

namespace {

template <class T>
void put(crypto::Sha256& h, const T& v) {
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(&v), sizeof v));
}

void put_hosts(crypto::Sha256& h, const std::vector<HostInput>& hosts) {
  for (const HostInput& x : hosts) {
    put(h, x.hid);
    put(h, x.keys.enc);
    put(h, x.keys.mac);
  }
}

}  // namespace

void digest_into(crypto::Sha256& h, const FwdInputs& in) {
  put_hosts(h, in.a_hosts);
  put_hosts(h, in.b_hosts);
  for (const FlowInput& f : in.flows) {
    put(h, f.src);
    put(h, f.dst);
    put(h, f.src_host);
    put(h, f.dst_host);
  }
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(in.closed_order.data()),
                    in.closed_order.size() * sizeof(std::uint32_t)));
  for (const Slot& s : in.open_schedule) {
    put(h, s.t_ns);
    put(h, s.flow);
  }
}

void digest_into(crypto::Sha256& h, const ShutoffInputs& in) {
  digest_into(h, in.fwd);
  for (const ShutoffRequestInput& r : in.requests) {
    h.update(ByteSpan(r.req.offending_packet));
    put(h, r.req.sig);
    h.update(ByteSpan(r.req.dst_cert.serialize()));
    put(h, r.t_ns);
    put(h, r.flow);
    put(h, r.valid);
  }
}

void digest_into(crypto::Sha256& h, const IssueInputs& in) {
  put_hosts(h, in.hosts);
  for (const core::EphId& e : in.ctrl) put(h, e.bytes);
  for (const IssueRequestInput& r : in.requests) {
    put(h, r.host);
    h.update(ByteSpan(r.sealed));
  }
  for (const std::int64_t t : in.open_arrivals) put(h, t);
}

}  // namespace apnabench

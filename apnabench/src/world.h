// Client-side inputs of every workload, generated from --seed alone, and the
// small helpers both sides of the benchmark share (AS identities, host
// registration, the bench payload layout).
//
// Determinism: everything here is a pure function of (seed, spec, run
// length) — ChaChaRng for key material, std::mt19937_64 for schedules — so
// the same seed gives byte-identical inputs (pinned by the self-test).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/as_state.h"
#include "core/cert.h"
#include "core/keys.h"
#include "core/messages.h"
#include "crypto/rng.h"
#include "crypto/sha2.h"
#include "net/sim.h"

namespace apnabench {

namespace core = apna::core;
namespace crypto = apna::crypto;
namespace wire = apna::wire;
namespace net = apna::net;

constexpr core::Aid kAidA = 64512;  // source AS: senders, egress BR, MS, AA
constexpr core::Aid kAidB = 64513;  // destination AS: receivers, ingress BR
/// The routers' and services' notion of "now" (EphID expiry is checked
/// against it); fixed so a run's verdicts do not depend on the wall clock.
constexpr core::ExpTime kNow = net::kEpochSeconds;
constexpr core::ExpTime kExp = kNow + 3600;

/// The secrets of AS `aid` for `seed` (deterministic).
core::AsSecrets as_secrets(std::uint64_t seed, core::Aid aid);

struct HostInput {
  core::Hid hid = 0;
  core::HostAsKeys keys;  // kHA, as both the host and its AS hold it
};

/// `n` hosts with HIDs first, first+1, ... and fresh kHA from `rng`.
std::vector<HostInput> make_hosts(crypto::Rng& rng, core::Hid first,
                                  std::size_t n);

/// Host registration on the AS side: one host_info record per host.
void register_hosts(core::AsState& as, const std::vector<HostInput>& hosts);

// ---- Bench payload (the first bytes of every data packet's payload) ------

constexpr std::size_t kPayloadFields = 24;

enum class Phase : std::uint8_t { warm = 0, closed = 1, open = 2 };

struct PayloadFields {
  std::uint64_t seq = 0;       // bench sequence number
  std::int64_t sched_ns = 0;   // scheduled send time (steady clock)
  std::uint32_t flow = 0;      // bench flow index
  Phase phase = Phase::warm;
};

void write_payload(std::uint8_t* p, const PayloadFields& f);
PayloadFields read_payload(const std::uint8_t* p);

// ---- Forwarding inputs ---------------------------------------------------

struct FlowInput {
  wire::EphIdBytes src{};      // issued by A's codec to a_hosts[src_host]
  wire::EphIdBytes dst{};      // issued by B's codec to b_hosts[dst_host]
  std::uint32_t src_host = 0;  // index into FwdInputs::a_hosts
  std::uint32_t dst_host = 0;  // index into FwdInputs::b_hosts
};

struct FwdSpec {
  std::size_t frame_bytes = 128;  // wire size of every data packet
  std::size_t a_hosts = 1024;
  std::size_t b_hosts = 1024;
  std::size_t flows = 4096;
  double zipf_s = 1.1;            // 0 → uniform over flows
  double open_rate_pps = 30000;   // open-phase offered rate
};

struct Slot {
  std::int64_t t_ns = 0;  // offset from the open phase's start
  std::uint32_t flow = 0;
};

struct FwdInputs {
  FwdSpec spec;
  std::vector<HostInput> a_hosts;
  std::vector<HostInput> b_hosts;
  std::vector<FlowInput> flows;
  std::vector<std::uint32_t> closed_order;  // flow of each closed-phase send (cycled)
  std::vector<Slot> open_schedule;          // sorted by t_ns
};

/// Benign traffic: `spec.flows` flows from A hosts to B hosts, a closed-
/// phase flow order and an open-phase schedule of `open_s` seconds at
/// spec.open_rate_pps (constant spacing).
FwdInputs make_fwd_inputs(const FwdSpec& spec, std::uint64_t seed,
                          double open_s);

// ---- Shutoff storm inputs --------------------------------------------------

struct ShutoffSpec {
  FwdSpec traffic;
  double shutoffs_per_s = 400;    // Fig-5 requests (valid + forged) per second
  double forged_share = 0.25;     // of requests: bad signature or non-recipient
  double attack_pps = 1000;       // per attacker/decoy flow while active
  double lead_s = 0.02;           // flow active this long before its request
  double tail_s = 0.01;           // ... and this long after
};

struct ShutoffRequestInput {
  core::ShutoffRequest req;
  std::int64_t t_ns = 0;     // scheduled arrival, offset from phase start
  std::uint32_t flow = 0;    // the flow whose packet is the evidence
  bool valid = false;
};

struct ShutoffInputs {
  /// Benign flows [0, spec.traffic.flows), then one attacker flow per valid
  /// request and one decoy flow per forged request — each from its own A
  /// host, aimed at a victim EphID certified by B.
  FwdInputs fwd;
  std::vector<ShutoffRequestInput> requests;  // sorted by t_ns
};

ShutoffInputs make_shutoff_inputs(const ShutoffSpec& spec, std::uint64_t seed,
                                  double open_s);

// ---- Issuance inputs --------------------------------------------------------

struct IssueRequestInput {
  std::uint32_t host = 0;       // index into IssueInputs::hosts
  apna::Bytes sealed;           // E_kHA(EphIdRequest), PoP-signed
  core::EphIdPublicKeys pub;    // the requested EphID's public keys
};

struct IssueInputs {
  std::vector<HostInput> hosts;
  std::vector<core::EphId> ctrl;  // each host's control EphID (A's codec)
  std::vector<IssueRequestInput> requests;  // cycled by both phases
  std::vector<std::int64_t> open_arrivals;  // offsets from the open phase's start
};

IssueInputs make_issue_inputs(std::size_t hosts, std::size_t requests,
                              double open_rate_per_s, std::uint64_t seed,
                              double open_s);

// ---- The workloads' shapes ---------------------------------------------------
// `small` shrinks hosts/flows/requests for the self-test's short runs; the
// benchmark command always uses the full shapes.

FwdSpec hot_small_spec(bool small);
FwdSpec cold_large_spec(bool small);
ShutoffSpec shutoff_spec(bool small);

struct IssueSpec {
  std::size_t hosts = 4096;
  std::size_t requests = 4096;     // distinct sealed requests, cycled
  double open_rate_per_s = 2000;   // open-phase arrival rate
};
IssueSpec issue_spec(bool small);

// ---- Digests (seed determinism) ---------------------------------------------

void digest_into(crypto::Sha256& h, const FwdInputs& in);
void digest_into(crypto::Sha256& h, const ShutoffInputs& in);
void digest_into(crypto::Sha256& h, const IssueInputs& in);

}  // namespace apnabench

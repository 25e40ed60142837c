// Hand-built instances of every control message (core/messages.h), the
// EphID certificate (core/cert.h), both DNS frames (dns/dns_wire.h) and one
// control-sealing input set. The tests pair each instance with its
// checked-in wire bytes (hex): those bytes are the format's oracle, so
// encode() must keep reproducing them exactly.
//
// Field values are counting byte patterns and recognisable constants, so a
// drifted field shows up at a readable offset in a hex diff. Never edit an
// instance without regenerating its vector: the pair is the contract.
#pragma once

#include <array>
#include <cstdint>

#include "core/messages.h"
#include "dns/dns_wire.h"

namespace apna::golden {

/// N bytes counting up from `start` (wrapping).
template <std::size_t N>
std::array<std::uint8_t, N> counting(std::uint8_t start) {
  std::array<std::uint8_t, N> out;
  for (std::size_t i = 0; i < N; ++i)
    out[i] = static_cast<std::uint8_t>(start + i);
  return out;
}

inline core::EphId ephid(std::uint8_t start) {
  core::EphId e;
  e.bytes = counting<16>(start);
  return e;
}

inline core::EphIdCertificate cert() {
  core::EphIdCertificate c;
  c.ephid = ephid(0x10);
  c.exp_time = 1'700'000'900;
  c.pub.dh = counting<32>(0x20);
  c.pub.sig = counting<32>(0x40);
  c.aid = 64512;
  c.aa_ephid = ephid(0x60);
  c.flags = core::kCertReceiveOnly;
  c.sig = counting<64>(0x80);
  return c;
}

inline core::EphIdCertificate service_cert() {
  core::EphIdCertificate c = cert();
  c.ephid = ephid(0x70);
  c.flags = core::kCertService;
  return c;
}

inline core::BootstrapRequest bootstrap_request() {
  core::BootstrapRequest m;
  m.subscriber_id = 0x01020304;
  m.credential = to_bytes("pw-digest");
  m.host_pub = counting<32>(0xa0);
  return m;
}

inline core::BootstrapResponse bootstrap_response() {
  core::BootstrapResponse m;
  m.hid = 0xbeef;
  m.ctrl_ephid = ephid(0x30);
  m.ctrl_exp_time = 1'700'086'400;
  m.id_info_sig = counting<64>(0xc0);
  m.ms_cert = service_cert();
  m.dns_cert = cert();
  m.aid = 64512;
  m.aa_ephid = ephid(0x60);
  return m;
}

inline core::EphIdRequest ephid_request() {
  core::EphIdRequest m;
  m.ephid_pub.dh = counting<32>(0x21);
  m.ephid_pub.sig = counting<32>(0x41);
  m.flags = core::kRequestReceiveOnly;
  m.lifetime = core::EphIdLifetime::medium_term;
  m.pop_sig = counting<64>(0x81);
  return m;
}

inline core::EphIdResponse ephid_response() {
  core::EphIdResponse m;
  m.cert = cert();
  return m;
}

inline core::HandshakeInit handshake_init() {
  core::HandshakeInit m;
  m.client_cert = cert();
  m.client_nonce = 0x0102030405060708;
  m.suite = crypto::AeadSuite::aes128_ctr_cmac;
  m.early_data = to_bytes("0-rtt hello");
  return m;
}

inline core::HandshakeResponse handshake_response() {
  core::HandshakeResponse m;
  m.serving_cert = service_cert();
  m.server_nonce = 0x1112131415161718;
  m.suite = crypto::AeadSuite::aes128_gcm;
  return m;
}

inline core::DnsQuery dns_query() {
  core::DnsQuery m;
  m.name = "shop.example";
  return m;
}

inline core::DnsRecord dns_record() {
  core::DnsRecord rec;
  rec.name = "shop.example";
  rec.cert = cert();
  rec.ipv4 = 0x0a00002a;
  rec.sig = counting<64>(0xe0);
  return rec;
}

inline core::DnsResponse dns_response() {
  core::DnsResponse m;
  m.status = 0;
  m.record = dns_record();
  return m;
}

inline core::DnsResponse dns_response_nxdomain() {
  core::DnsResponse m;
  m.status = 1;
  return m;
}

inline core::DnsPublish dns_publish() {
  core::DnsPublish m;
  m.name = "shop.example";
  m.cert = cert();
  m.ipv4 = 0xc0a80001;
  return m;
}

inline core::ShutoffRequest shutoff_request() {
  core::ShutoffRequest m;
  m.offending_packet = to_bytes("offending packet");
  m.sig = counting<64>(0x90);
  m.dst_cert = cert();
  return m;
}

inline core::EphIdRevokeRequest revoke_request() {
  core::EphIdRevokeRequest m;
  m.ephid = ephid(0x10);
  m.sig = counting<64>(0x50);
  m.cert = cert();
  return m;
}

inline core::ShutoffResponse shutoff_response() {
  core::ShutoffResponse m;
  m.status = 3;
  return m;
}

inline core::IcmpMessage icmp_message() {
  core::IcmpMessage m;
  m.type = core::IcmpType::packet_too_big;
  m.code = 1400;
  const auto quote = counting<12>(0x00);
  m.data.assign(quote.begin(), quote.end());
  return m;
}

// ---- DNS frames -------------------------------------------------------------

inline dns::QueryFrame query_frame() {
  dns::QueryFrame q;
  q.id = 0xbeef;
  q.name = "shop.example";
  return q;
}

inline dns::ResponseFrame response_frame() {
  dns::ResponseFrame r;
  r.id = 7;
  r.rcode = dns::Rcode::ok;
  r.ttl = 300;
  r.name = "shop.example";
  r.record = dns_record();
  return r;
}

inline dns::ResponseFrame response_frame_nxdomain() {
  dns::ResponseFrame r;
  r.id = 8;
  r.rcode = dns::Rcode::nxdomain;
  r.ttl = 30;
  r.name = "missing.example";
  return r;
}

// ---- Control sealing (Fig 3's E_kHA) ----------------------------------------

inline core::HostAsKeys seal_keys() {
  core::HostAsKeys k;
  k.enc = counting<32>(0x00);
  k.mac = counting<16>(0x40);
  return k;
}

inline constexpr std::uint64_t kSealCounter = 0x0000000100000002;

inline Bytes seal_plaintext() { return to_bytes("APNA control payload"); }

}  // namespace apna::golden

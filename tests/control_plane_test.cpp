// Control-plane fabric tests:
//  * checked-in golden wire bytes for every control message, the EphID
//    certificate and control sealing, plus one digest over a fixed-seed
//    randomized corpus (the wire format's oracle),
//  * round trip, per-byte truncation and trailing-byte rejection through
//    the strict decoder,
//  * PacketWriter ↔ Packet::seal wire-image equivalence,
//  * ServiceDispatcher routing by destination EphID,
//  * ServicePool issuance determinism: M workers emit bit-identical
//    responses to the single-threaded pool, and a whole burst (PoP batches
//    up to kIssueChunk wide) emits the same bytes as one-request calls,
//    plus pooled shutoff bursts.
#include <gtest/gtest.h>

#include "core/packet_auth.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "host/ephid_pool.h"
#include "services/accountability_agent.h"
#include "dns/dns_service.h"
#include "services/management_service.h"
#include "services/registry_service.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "services/subscriber_registry.h"
#include "util/hex.h"
#include "wire/msg_codec.h"

#include "golden_codec.h"

namespace apna {
namespace {

// ---- Randomized message corpus ----------------------------------------------

struct Gen {
  crypto::ChaChaRng rng{20260726};

  template <std::size_t N>
  std::array<std::uint8_t, N> arr() {
    std::array<std::uint8_t, N> out;
    rng.fill(MutByteSpan(out.data(), N));
    return out;
  }
  core::EphId ephid() {
    core::EphId e;
    e.bytes = arr<16>();
    return e;
  }
  std::string name(std::size_t max = 24) {
    const std::size_t n = 1 + rng.next_u64() % max;
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
      s.push_back(static_cast<char>('a' + rng.next_u64() % 26));
    return s;
  }
  core::EphIdCertificate cert() {
    core::EphIdCertificate c;
    c.ephid = ephid();
    c.exp_time = static_cast<core::ExpTime>(rng.next_u64());
    c.pub.dh = arr<32>();
    c.pub.sig = arr<32>();
    c.aid = static_cast<core::Aid>(rng.next_u64());
    c.aa_ephid = ephid();
    c.flags = static_cast<std::uint8_t>(rng.next_u64() % 4);
    c.sig = arr<64>();
    return c;
  }
};

/// Encodings a corpus pass has produced, in order, folded into one digest.
struct Corpus {
  crypto::Sha256 sha;
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

/// One encode + round-trip + truncation + trailing-byte pass for a message.
/// The encoding goes to `out` for the caller to compare against a checked-in
/// vector (or to fold into a corpus digest).
template <class M>
void check_codec(const M& msg, Bytes& out) {
  wire::MsgWriter w(16);
  msg.encode(w);
  out.assign(w.span().begin(), w.span().end());

  // 1. Round trip: decode(encode(m)) re-encodes to the same bytes.
  auto back = core::decode_msg<M>(w.span());
  ASSERT_TRUE(back.ok()) << errc_name(back.code());
  ASSERT_EQ(core::encode_msg(*back), out);

  // 2. Every strict prefix is rejected (truncation at each byte boundary).
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    auto t = core::decode_msg<M>(ByteSpan(out.data(), cut));
    EXPECT_FALSE(t.ok()) << "prefix of " << cut << "/" << out.size()
                         << " bytes decoded";
  }

  // 3. One trailing byte is rejected: the strict decoder owns the whole
  //    payload.
  Bytes extended = out;
  extended.push_back(0);
  EXPECT_FALSE(core::decode_msg<M>(extended).ok()) << "trailing byte decoded";
}

template <class M>
void check_codec(const M& msg, Corpus& corpus) {
  Bytes out;
  check_codec(msg, out);
  corpus.sha.update(out);
  ++corpus.messages;
  corpus.bytes += out.size();
}

/// check_codec plus the checked-in wire image.
template <class M>
void check_golden(const M& msg, std::string_view hex) {
  Bytes out;
  check_codec(msg, out);
  EXPECT_EQ(hex_encode(out), hex);
}

// ---- Golden vectors ----------------------------------------------------------
//
// The hex below is the wire format's oracle for tests/golden_codec.h's
// instances: a change here is a wire-format change and must be deliberate.

TEST(MsgCodec, GoldenBytesPerMessage) {
  check_golden(golden::bootstrap_request(),
               "01020304000970772d646967657374a0a1a2a3a4a5a6a7a8a9aaabacad"
               "aeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf");
  check_golden(golden::bootstrap_response(),
               "0000beef303132333435363738393a3b3c3d3e3f65554280c0c1c2c3c4"
               "c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1"
               "e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfe"
               "ff707172737475767778797a7b7c7d7e7f6553f4842021222324252627"
               "28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041424344"
               "45464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000"
               "fc00606162636465666768696a6b6c6d6e6f0280818283848586878889"
               "8a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6"
               "a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf10111213"
               "1415161718191a1b1c1d1e1f6553f484202122232425262728292a2b2c"
               "2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849"
               "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc00606162"
               "636465666768696a6b6c6d6e6f01808182838485868788898a8b8c8d8e"
               "8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaab"
               "acadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf0000fc006061626364"
               "65666768696a6b6c6d6e6f");
  check_golden(golden::ephid_request(),
               "2122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d"
               "3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a"
               "5b5c5d5e5f6001018182838485868788898a8b8c8d8e8f909192939495"
               "969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2"
               "b3b4b5b6b7b8b9babbbcbdbebfc0");
  check_golden(golden::ephid_response(),
               "101112131415161718191a1b1c1d1e1f6553f484202122232425262728"
               "292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445"
               "464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc"
               "00606162636465666768696a6b6c6d6e6f01808182838485868788898a"
               "8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7"
               "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf");
  check_golden(golden::handshake_init(),
               "101112131415161718191a1b1c1d1e1f6553f484202122232425262728"
               "292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445"
               "464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc"
               "00606162636465666768696a6b6c6d6e6f01808182838485868788898a"
               "8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7"
               "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf0102030405"
               "06070803000b302d7274742068656c6c6f");
  check_golden(golden::handshake_response(),
               "707172737475767778797a7b7c7d7e7f6553f484202122232425262728"
               "292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445"
               "464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc"
               "00606162636465666768696a6b6c6d6e6f02808182838485868788898a"
               "8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7"
               "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf1112131415"
               "16171802");
  check_golden(golden::dns_query(),
               "000c73686f702e6578616d706c65");
  check_golden(golden::dns_response(),
               "0001000c73686f702e6578616d706c65101112131415161718191a1b1c"
               "1d1e1f6553f484202122232425262728292a2b2c2d2e2f303132333435"
               "363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152"
               "535455565758595a5b5c5d5e5f0000fc00606162636465666768696a6b"
               "6c6d6e6f01808182838485868788898a8b8c8d8e8f9091929394959697"
               "98999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4"
               "b5b6b7b8b9babbbcbdbebf0a00002ae0e1e2e3e4e5e6e7e8e9eaebeced"
               "eeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a"
               "0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  check_golden(golden::dns_response_nxdomain(),
               "0100");
  check_golden(golden::dns_publish(),
               "000c73686f702e6578616d706c65101112131415161718191a1b1c1d1e"
               "1f6553f484202122232425262728292a2b2c2d2e2f3031323334353637"
               "38393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f5051525354"
               "55565758595a5b5c5d5e5f0000fc00606162636465666768696a6b6c6d"
               "6e6f01808182838485868788898a8b8c8d8e8f90919293949596979899"
               "9a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
               "b7b8b9babbbcbdbebfc0a80001");
  check_golden(golden::shutoff_request(),
               "00106f6666656e64696e67207061636b6574909192939495969798999a"
               "9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7"
               "b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf1011121314"
               "15161718191a1b1c1d1e1f6553f484202122232425262728292a2b2c2d"
               "2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a"
               "4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc0060616263"
               "6465666768696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f"
               "909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabac"
               "adaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf");
  check_golden(golden::revoke_request(),
               "101112131415161718191a1b1c1d1e1f505152535455565758595a5b5c"
               "5d5e5f606162636465666768696a6b6c6d6e6f70717273747576777879"
               "7a7b7c7d7e7f808182838485868788898a8b8c8d8e8f10111213141516"
               "1718191a1b1c1d1e1f6553f484202122232425262728292a2b2c2d2e2f"
               "303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c"
               "4d4e4f505152535455565758595a5b5c5d5e5f0000fc00606162636465"
               "666768696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f9091"
               "92939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadae"
               "afb0b1b2b3b4b5b6b7b8b9babbbcbdbebf");
  check_golden(golden::shutoff_response(),
               "03");
  check_golden(golden::icmp_message(),
               "0400000578000c000102030405060708090a0b");
}

TEST(MsgCodec, RandomizedCorpusMatchesGoldenDigest) {
  // Every encoding the fixed-seed corpus produces, in order, hashed: one
  // digest pins 325 randomized wire images (25 rounds x 13 messages).
  Gen g;
  Corpus corpus;
  for (int iter = 0; iter < 25; ++iter) {
    {
      core::BootstrapRequest m;
      m.subscriber_id = static_cast<std::uint32_t>(g.rng.next_u64());
      m.credential = g.rng.bytes(1 + g.rng.next_u64() % 40);
      m.host_pub = g.arr<32>();
      check_codec(m, corpus);
    }
    {
      core::BootstrapResponse m;
      m.hid = static_cast<core::Hid>(g.rng.next_u64());
      m.ctrl_ephid = g.ephid();
      m.ctrl_exp_time = static_cast<core::ExpTime>(g.rng.next_u64());
      m.id_info_sig = g.arr<64>();
      m.ms_cert = g.cert();
      m.dns_cert = g.cert();
      m.aid = static_cast<core::Aid>(g.rng.next_u64());
      m.aa_ephid = g.ephid();
      check_codec(m, corpus);
    }
    {
      core::EphIdRequest m;
      m.ephid_pub.dh = g.arr<32>();
      m.ephid_pub.sig = g.arr<32>();
      m.flags = g.rng.next_u64() % 2 ? core::kRequestReceiveOnly : 0;
      m.lifetime = static_cast<core::EphIdLifetime>(g.rng.next_u64() % 3);
      m.pop_sig = g.arr<64>();
      check_codec(m, corpus);
    }
    {
      core::EphIdResponse m;
      m.cert = g.cert();
      check_codec(m, corpus);
    }
    {
      core::HandshakeInit m;
      m.client_cert = g.cert();
      m.client_nonce = g.rng.next_u64();
      m.suite = static_cast<crypto::AeadSuite>(1 + g.rng.next_u64() % 3);
      if (g.rng.next_u64() % 2) m.early_data = g.rng.bytes(g.rng.next_u64() % 64);
      check_codec(m, corpus);
    }
    {
      core::HandshakeResponse m;
      m.serving_cert = g.cert();
      m.server_nonce = g.rng.next_u64();
      m.suite = static_cast<crypto::AeadSuite>(1 + g.rng.next_u64() % 3);
      check_codec(m, corpus);
    }
    {
      core::DnsQuery m;
      m.name = g.name();
      check_codec(m, corpus);
    }
    {
      core::DnsResponse m;
      m.status = g.rng.next_u64() % 2;
      if (m.status == 0) {
        core::DnsRecord rec;
        rec.name = g.name();
        rec.cert = g.cert();
        rec.ipv4 = static_cast<std::uint32_t>(g.rng.next_u64());
        rec.sig = g.arr<64>();
        m.record = rec;
      }
      check_codec(m, corpus);
    }
    {
      core::DnsPublish m;
      m.name = g.name();
      m.cert = g.cert();
      m.ipv4 = static_cast<std::uint32_t>(g.rng.next_u64());
      check_codec(m, corpus);
    }
    {
      core::ShutoffRequest m;
      m.offending_packet = g.rng.bytes(1 + g.rng.next_u64() % 128);
      m.sig = g.arr<64>();
      m.dst_cert = g.cert();
      check_codec(m, corpus);
    }
    {
      core::EphIdRevokeRequest m;
      m.ephid = g.ephid();
      m.sig = g.arr<64>();
      m.cert = g.cert();
      check_codec(m, corpus);
    }
    {
      core::ShutoffResponse m;
      m.status = static_cast<std::uint8_t>(g.rng.next_u64());
      check_codec(m, corpus);
    }
    {
      core::IcmpMessage m;
      m.type = static_cast<core::IcmpType>(g.rng.next_u64() % 5);
      m.code = static_cast<std::uint32_t>(g.rng.next_u64());
      m.data = g.rng.bytes(g.rng.next_u64() % 64);
      check_codec(m, corpus);
    }
  }
  EXPECT_EQ(corpus.messages, 325u);
  EXPECT_EQ(corpus.bytes, 51365u);
  const auto digest = corpus.sha.finish();
  EXPECT_EQ(hex_encode(ByteSpan(digest.data(), digest.size())),
            "d5ff0fa7425fc3e2e35ba5335dfb1240"
            "8e4c417ab6f9b42aef4d11f7d874942e");
}

TEST(MsgCodec, CertGoldenBytes) {
  const core::EphIdCertificate c = golden::cert();
  wire::MsgWriter w(16);
  c.encode_into(w);
  EXPECT_EQ(hex_encode(w.span()),
            "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a"
            "2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849"
            "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364"
            "65666768696a6b6c6d6e6f01808182838485868788898a8b8c8d8e8f909192"
            "939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1"
            "b2b3b4b5b6b7b8b9babbbcbdbebf");
  EXPECT_EQ(c.serialize(), Bytes(w.span().begin(), w.span().end()));

  wire::MsgWriter svc(16);
  golden::service_cert().encode_into(svc);
  EXPECT_EQ(hex_encode(svc.span()),
            "707172737475767778797a7b7c7d7e7f6553f484202122232425262728292a"
            "2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849"
            "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364"
            "65666768696a6b6c6d6e6f02808182838485868788898a8b8c8d8e8f909192"
            "939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1"
            "b2b3b4b5b6b7b8b9babbbcbdbebf");

  // The signed bytes are the wire form minus the trailing signature.
  wire::MsgWriter tbs(16);
  c.tbs_into(tbs);
  EXPECT_EQ(hex_encode(tbs.span()),
            "101112131415161718191a1b1c1d1e1f6553f484202122232425262728292a"
            "2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849"
            "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f0000fc006061626364"
            "65666768696a6b6c6d6e6f01");

  // Strict decoder: round trip, every prefix and one trailing byte.
  auto back = core::EphIdCertificate::parse(w.span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, c);
  for (std::size_t cut = 0; cut < w.size(); ++cut)
    EXPECT_FALSE(core::EphIdCertificate::parse(w.span().first(cut)).ok())
        << cut;
  Bytes extended(w.span().begin(), w.span().end());
  extended.push_back(0);
  EXPECT_FALSE(core::EphIdCertificate::parse(extended).ok());
}

TEST(MsgCodec, SignedStatementGoldenBytes) {
  EXPECT_EQ(hex_encode(golden::bootstrap_response().id_info_tbs()),
            "303132333435363738393a3b3c3d3e3f655542800000beef");
  const Bytes revoke =
      core::EphIdRevokeRequest::revoke_tbs(golden::ephid(0x10));
  EXPECT_EQ(hex_encode(revoke),
            "001561706e612d766f6c756e746172792d7265766f6b651011121314151617"
            "18191a1b1c1d1e1f");
  wire::MsgWriter w(16);
  golden::dns_record().tbs_into(w);
  EXPECT_EQ(hex_encode(w.span()),
            "000c73686f702e6578616d706c65101112131415161718191a1b1c1d1e1f65"
            "53f484202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
            "3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a"
            "5b5c5d5e5f0000fc00606162636465666768696a6b6c6d6e6f018081828384"
            "85868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3"
            "a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf0a0000"
            "2a");
}

TEST(MsgCodec, SealControlGoldenVectors) {
  // Fixed key, counter and plaintext, both directions: pins the nonce
  // layout (direction byte, counter at offset 4) and the sealed framing.
  const core::HostAsKeys keys = golden::seal_keys();
  const Bytes pt = golden::seal_plaintext();
  const std::pair<bool, std::string_view> vectors[] = {
      {true,
       "00000001000000023276378368b47c9acabfd4d7ffb3d8ffb397271417775dcd"
       "4d416ba243351707cc12a75d"},
      {false,
       "000000010000000272e8c8f0d15dab35b1f7ba5dedaf69b7e5b26196b2ab2db6"
       "51f4ffb6397d5d4297bf3bd4"},
  };
  for (const auto& [from_host, hex] : vectors) {
    const Bytes sealed =
        core::seal_control(keys, golden::kSealCounter, from_host, pt);
    EXPECT_EQ(hex_encode(sealed), hex) << from_host;
    wire::MsgWriter w(16);
    core::seal_control_into(w, keys, golden::kSealCounter, from_host, pt);
    EXPECT_EQ(hex_encode(w.span()), hex) << from_host;

    auto opened = core::open_control(keys, from_host, sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, pt);
    wire::MsgWriter scratch(16);
    auto opened_into =
        core::open_control_into(scratch, keys, from_host, sealed);
    ASSERT_TRUE(opened_into.ok());
    EXPECT_EQ(Bytes(opened_into->begin(), opened_into->end()), pt);
    // The other direction's nonce space never opens it.
    EXPECT_EQ(core::open_control(keys, !from_host, sealed).code(),
              Errc::decrypt_failed);
  }
}

TEST(MsgCodec, PacketWriterMatchesPacketSeal) {
  Gen g;
  for (int i = 0; i < 16; ++i) {
    wire::Packet p;
    p.src_aid = static_cast<core::Aid>(g.rng.next_u64());
    p.src_ephid = g.arr<16>();
    p.dst_ephid = g.arr<16>();
    p.dst_aid = static_cast<core::Aid>(g.rng.next_u64());
    p.proto = static_cast<wire::NextProto>(g.rng.next_u64() % 5);
    const Bytes payload = g.rng.bytes(g.rng.next_u64() % 200);
    p.payload = payload;
    std::optional<std::uint64_t> nonce;
    if (i % 2 == 0) {
      nonce = g.rng.next_u64();
      p.set_nonce(*nonce);
    }

    wire::PacketBuf legacy = p.seal();
    wire::PacketWriter pw(p.src_aid, p.src_ephid, p.dst_aid, p.dst_ephid,
                          p.proto, nonce);
    pw.raw(payload);
    wire::PacketBuf direct = pw.finish();

    ASSERT_EQ(legacy.wire_size(), direct.wire_size());
    EXPECT_TRUE(std::equal(legacy.view().bytes().begin(),
                           legacy.view().bytes().end(),
                           direct.view().bytes().begin()));
    EXPECT_EQ(legacy.view().payload().size(), direct.view().payload().size());
  }
}

// ---- Service fixture (mirrors services_test's AsFixture) --------------------

struct Fixture {
  crypto::ChaChaRng rng{7001};
  net::EventLoop loop;
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  core::AsDirectory dir;
  services::SubscriberRegistry subs;
  services::RegistryService rs{as, subs, loop, rng};
  services::ServiceIdentity aa_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, nullptr, rng);
  services::ServiceIdentity ms_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  services::ServiceIdentity dns_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0,
      &aa_ident.cert.ephid, rng);
  services::ManagementService ms{as, loop, rng, ms_ident};
  services::AccountabilityAgent aa{as, dir, loop, aa_ident};
  services::DnsZone zone;
  dns::Resolver resolver{zone, loop, dns::Resolver::Config{}};
  dns::DnsService dns{as, dir, loop, rng, dns_ident, resolver};

  core::Hid hid = 0;
  core::EphId ctrl;
  core::HostAsKeys keys;

  Fixture() {
    core::AsPublicInfo info;
    info.aid = as.aid;
    info.sign_pub = as.secrets.sign.pub;
    info.dh_pub = as.secrets.dh.pub;
    info.aa_ephid = aa_ident.cert.ephid;
    dir.register_as(info);
    subs.add_subscriber(1, to_bytes("pw"));

    auto lt = crypto::X25519KeyPair::generate(rng);
    core::BootstrapRequest req;
    req.subscriber_id = 1;
    req.credential = to_bytes("pw");
    req.host_pub = lt.pub;
    auto resp = rs.bootstrap(req);
    hid = resp->hid;
    ctrl = resp->ctrl_ephid;
    keys = core::HostAsKeys::derive(
        crypto::x25519_shared(lt.priv, as.secrets.dh.pub));
  }

  /// Pre-seals `n` EphID requests under kHA (client side of Fig 3).
  std::vector<Bytes> make_requests(std::size_t n, std::uint64_t nonce0) {
    std::vector<Bytes> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto kp = core::EphIdKeyPair::generate(rng);
      core::EphIdRequest req;
      req.ephid_pub = kp.pub;
      req.flags = 0;
      req.lifetime =
          static_cast<core::EphIdLifetime>(i % host::kLifetimeClasses);
      req.pop_sig = kp.sign(req.pop_tbs());
      out.push_back(core::seal_control(keys, nonce0 + i, true,
                                       core::encode_msg(req)));
    }
    return out;
  }

  /// A control packet addressed to `dst` carrying `payload`.
  wire::PacketBuf make_control_packet(const core::EphId& dst,
                                      wire::NextProto proto, ByteSpan payload) {
    wire::PacketWriter pw(as.aid, ctrl.bytes, as.aid, dst.bytes, proto);
    pw.raw(payload);
    return pw.finish();
  }
};

// ---- Dispatcher routing ------------------------------------------------------

TEST(ServiceDispatcher, RoutesByDestinationEphId) {
  Fixture f;
  std::vector<wire::PacketBuf> replies;
  services::ServiceDispatcher disp(
      [&](wire::PacketBuf reply) { replies.push_back(std::move(reply)); });
  disp.add(f.ms);
  disp.add(f.aa);
  disp.add(f.dns);
  EXPECT_EQ(disp.service_count(), 3u);

  EXPECT_EQ(disp.route(f.ms.service_ephid()), &f.ms);
  EXPECT_EQ(disp.route(f.aa.service_ephid()), &f.aa);
  EXPECT_EQ(disp.route(f.dns.service_ephid()), &f.dns);
  EXPECT_EQ(disp.route(f.ctrl), nullptr);

  // A real issuance RPC through the dispatcher: reply comes from the MS
  // EphID, addressed back to the control EphID, and decrypts to a valid
  // certificate.
  const auto reqs = f.make_requests(1, 1);
  disp.dispatch(f.make_control_packet(f.ms.service_ephid(),
                                      wire::NextProto::control, reqs[0]));
  ASSERT_EQ(replies.size(), 1u);
  const wire::PacketView& v = replies[0].view();
  EXPECT_EQ(v.src_ephid(), f.ms.service_ephid().bytes);
  EXPECT_EQ(v.dst_ephid(), f.ctrl.bytes);
  auto opened = core::open_control(f.keys, false, v.payload());
  ASSERT_TRUE(opened.ok());
  auto resp = core::decode_msg<core::EphIdResponse>(*opened);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->cert.verify(f.as.secrets.sign.pub,
                                f.loop.now_seconds()).ok());
  EXPECT_EQ(disp.stats().dispatched, 1u);
  EXPECT_EQ(disp.stats().replies, 1u);

  // Unknown destination EphID: counted, no reply, no crash.
  core::EphId stranger;
  f.rng.fill(MutByteSpan(stranger.bytes.data(), 16));
  disp.dispatch(f.make_control_packet(stranger, wire::NextProto::control,
                                      reqs[0]));
  EXPECT_EQ(disp.stats().unrouted, 1u);
  EXPECT_EQ(replies.size(), 1u);

  // Wrong proto for the routed service: the service rejects, the
  // dispatcher counts it as a service error and forwards nothing.
  disp.dispatch(f.make_control_packet(f.ms.service_ephid(),
                                      wire::NextProto::data, reqs[0]));
  EXPECT_EQ(disp.stats().service_errors, 1u);
  EXPECT_EQ(replies.size(), 1u);
}

// ---- Pooled issuance ---------------------------------------------------------

TEST(ServicePool, PooledIssuanceIsDeterministicVsSingleThreaded) {
  constexpr std::size_t kN = 96;

  // Two identical worlds (same seeds end to end), different thread counts.
  auto run = [&](std::size_t threads) {
    Fixture f;
    services::ServicePool::Config cfg;
    cfg.threads = threads;
    services::ServicePool pool(f.ms, &f.aa, cfg);

    const auto requests = f.make_requests(kN, 1);
    std::vector<services::ServicePool::IssueJob> jobs(kN);
    for (std::size_t i = 0; i < kN; ++i)
      jobs[i] = {f.ctrl, requests[i]};
    std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
    pool.process_issuance(jobs, f.loop.now_seconds(), results);

    EXPECT_EQ(pool.stats().issuance_jobs, kN);
    EXPECT_EQ(pool.stats().failed_jobs, 0u);
    EXPECT_EQ(f.ms.stats().issued, kN);

    std::vector<Bytes> out;
    out.reserve(kN);
    for (auto& r : results) {
      EXPECT_TRUE(r.ok());
      // Every response decrypts to a certificate bound to our HID.
      auto opened = core::open_control(f.keys, false, *r);
      EXPECT_TRUE(opened.ok());
      auto resp = core::decode_msg<core::EphIdResponse>(*opened);
      EXPECT_TRUE(resp.ok());
      auto plain = f.as.codec.open(resp->cert.ephid);
      EXPECT_TRUE(plain.ok());
      EXPECT_EQ(plain->hid, f.hid);
      out.push_back(r.take());
    }
    return out;
  };

  const auto single = run(1);
  const auto quad = run(4);
  ASSERT_EQ(single.size(), quad.size());
  for (std::size_t i = 0; i < single.size(); ++i)
    EXPECT_EQ(single[i], quad[i]) << "response " << i
                                  << " differs across thread counts";
}

TEST(ServicePool, MixedValidAndInvalidRequests) {
  Fixture f;
  services::ServicePool::Config cfg;
  cfg.threads = 4;
  services::ServicePool pool(f.ms, nullptr, cfg);

  constexpr std::size_t kN = 32;
  auto requests = f.make_requests(kN, 1);
  std::vector<services::ServicePool::IssueJob> jobs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 4 == 3) requests[i][requests[i].size() / 2] ^= 1;  // garble
    jobs[i] = {f.ctrl, requests[i]};
  }
  std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 4 == 3)
      EXPECT_EQ(results[i].code(), Errc::decrypt_failed) << i;
    else
      EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_EQ(pool.stats().failed_jobs, kN / 4);
  EXPECT_EQ(f.ms.stats().issued, kN - kN / 4);
  EXPECT_EQ(f.ms.stats().rejected_bad_payload, kN / 4);
}

TEST(ServicePool, PooledIssuanceIsBurstSizeInvariant) {
  // A burst is claimed kIssueChunk requests at a time, and each chunk is
  // one ed25519_verify_batch PoP sweep. Issuing a burst of n in one call
  // must give the same bytes as n one-request calls (every batch of width
  // 1): the batch-vs-scalar equivalence contract, observed end to end.
  // The sizes reach every batch width from 1 to 16 plus a short tail.
  static_assert(services::ServicePool::kIssueChunk == 16);
  for (const std::size_t n : {1u, 15u, 16u, 17u, 48u}) {
    auto run = [&](bool whole_burst) {
      Fixture f;
      services::ServicePool::Config cfg;
      cfg.threads = 2;
      services::ServicePool pool(f.ms, nullptr, cfg);
      const auto requests = f.make_requests(n, 1);
      std::vector<services::ServicePool::IssueJob> jobs(n);
      for (std::size_t i = 0; i < n; ++i) jobs[i] = {f.ctrl, requests[i]};
      std::vector<Result<Bytes>> results(n, Result<Bytes>(Errc::internal));
      if (whole_burst) {
        pool.process_issuance(jobs, f.loop.now_seconds(), results);
      } else {
        for (std::size_t i = 0; i < n; ++i)
          pool.process_issuance({&jobs[i], 1}, f.loop.now_seconds(),
                                {&results[i], 1});
      }
      std::vector<Bytes> out;
      for (auto& r : results) {
        EXPECT_TRUE(r.ok());
        out.push_back(r.take());
      }
      return out;
    };
    const auto burst = run(true);
    const auto each = run(false);
    ASSERT_EQ(burst.size(), n);
    ASSERT_EQ(each.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(burst[i], each[i]) << "n=" << n << " request " << i;
  }
}

TEST(ServicePool, BadPopInChunkRejectsOnlyThatRequest) {
  // One forged proof-of-possession inside an otherwise-valid chunk: the
  // batch RLC check fails, bisection isolates the forgery, and every other
  // request in the same chunk still issues — outcomes identical to scalar
  // verification.
  Fixture f;
  services::ServicePool::Config cfg;
  cfg.threads = 2;
  services::ServicePool pool(f.ms, nullptr, cfg);

  constexpr std::size_t kN = 16;
  std::vector<Bytes> requests;
  for (std::size_t i = 0; i < kN; ++i) {
    auto kp = core::EphIdKeyPair::generate(f.rng);
    core::EphIdRequest req;
    req.ephid_pub = kp.pub;
    req.flags = 0;
    req.lifetime = core::EphIdLifetime::short_term;
    req.pop_sig = kp.sign(req.pop_tbs());
    if (i == 9) req.pop_sig[11] ^= 0x08;  // forge exactly one
    requests.push_back(
        core::seal_control(f.keys, 1 + i, true, core::encode_msg(req)));
  }
  std::vector<services::ServicePool::IssueJob> jobs(kN);
  for (std::size_t i = 0; i < kN; ++i) jobs[i] = {f.ctrl, requests[i]};
  std::vector<Result<Bytes>> results(kN, Result<Bytes>(Errc::internal));
  pool.process_issuance(jobs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i < kN; ++i) {
    if (i == 9)
      EXPECT_EQ(results[i].code(), Errc::bad_signature) << i;
    else
      EXPECT_TRUE(results[i].ok()) << i;
  }
  EXPECT_EQ(f.ms.stats().issued, kN - 1);
  EXPECT_EQ(f.ms.stats().rejected_bad_pop, 1u);
  EXPECT_EQ(pool.stats().failed_jobs, 1u);
}

TEST(ServicePool, PooledShutoffVerification) {
  Fixture f;

  // A victim in a second AS, with a certificate this AS can verify.
  crypto::ChaChaRng rng_b{7002};
  core::AsState as_b{64513, core::AsSecrets::generate(rng_b)};
  core::AsPublicInfo info_b;
  info_b.aid = as_b.aid;
  info_b.sign_pub = as_b.secrets.sign.pub;
  info_b.dh_pub = as_b.secrets.dh.pub;
  f.dir.register_as(info_b);
  core::EphIdKeyPair victim_kp = core::EphIdKeyPair::generate(rng_b);
  core::EphIdCertificate victim_cert;
  victim_cert.ephid = as_b.codec.issue(77, f.loop.now_seconds() + 900, rng_b);
  victim_cert.exp_time = f.loop.now_seconds() + 900;
  victim_cert.pub = victim_kp.pub;
  victim_cert.aid = as_b.aid;
  victim_cert.aa_ephid = as_b.codec.issue(1, f.loop.now_seconds() + 900, rng_b);
  victim_cert.sign_with(as_b.secrets.sign);

  const auto host_rec = f.as.host_db.find(f.hid);
  ASSERT_TRUE(host_rec.has_value());

  // One offending packet per attacker EphID (per-flow granularity). Stay
  // below the §VIII-G2 escalation limit (16 revocations erase the HID).
  constexpr std::size_t kN = 12;
  std::vector<core::ShutoffRequest> reqs(kN);
  std::vector<core::EphId> attacker_ephids(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    attacker_ephids[i] =
        f.as.codec.issue(f.hid, f.loop.now_seconds() + 900, f.rng);
    wire::Packet pkt;
    pkt.src_aid = f.as.aid;
    pkt.src_ephid = attacker_ephids[i].bytes;
    pkt.dst_aid = as_b.aid;
    pkt.dst_ephid = victim_cert.ephid.bytes;
    pkt.proto = wire::NextProto::data;
    pkt.payload = to_bytes("flood");
    core::stamp_packet_mac(*host_rec->cmac, pkt);
    reqs[i].offending_packet = pkt.serialize();
    reqs[i].sig = victim_kp.sign(reqs[i].offending_packet);
    reqs[i].dst_cert = victim_cert;
  }
  // Garble one signature: exactly one job must fail.
  reqs[kN - 1].sig[0] ^= 1;

  services::ServicePool::Config cfg;
  cfg.threads = 4;
  services::ServicePool pool(f.ms, &f.aa, cfg);
  std::vector<Result<void>> results(kN);
  pool.process_shutoffs(reqs, f.loop.now_seconds(), results);

  for (std::size_t i = 0; i + 1 < kN; ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
    EXPECT_TRUE(f.as.revoked.is_revoked(attacker_ephids[i])) << i;
  }
  EXPECT_EQ(results[kN - 1].code(), Errc::bad_signature);
  EXPECT_FALSE(f.as.revoked.is_revoked(attacker_ephids[kN - 1]));
  EXPECT_EQ(pool.stats().shutoff_jobs, kN);
  EXPECT_EQ(pool.stats().failed_jobs, 1u);
  EXPECT_EQ(f.aa.stats().accepted, kN - 1);
  EXPECT_EQ(f.aa.stats().rejected_bad_sig, 1u);
}

// ---- Lifecycle-manager planning (host/ephid_pool.h) -------------------------

TEST(EphIdLifecycleManager, PlansDeficitsPerClassAndBacksOff) {
  host::EphIdPool pool;
  const core::ExpTime now = 1'700'000'000;

  // One short-term EphID about to expire, one healthy medium-term.
  auto add = [&](core::EphIdLifetime lt, core::ExpTime exp) {
    core::EphIdCertificate c;
    c.exp_time = exp;
    crypto::ChaChaRng r{exp};
    r.fill(MutByteSpan(c.ephid.bytes.data(), 16));
    pool.add(core::EphIdKeyPair{}, std::move(c), lt);
  };
  add(core::EphIdLifetime::short_term, now + 60);     // inside the lead
  add(core::EphIdLifetime::medium_term, now + 7200);  // healthy

  host::EphIdLifecycleManager::Config cfg;
  cfg.classes[0] = host::RenewalPolicy{.min_ready = 2, .lead_s = 120};
  cfg.classes[1] = host::RenewalPolicy{.min_ready = 1, .lead_s = 120};
  // class 2 (long_term) disabled.
  host::EphIdLifecycleManager mgr(cfg);

  net::TimeUs now_us = 1000;
  auto plan = mgr.plan(pool, now, now_us);
  // Short-term: the near-expiry EphID does not count toward readiness.
  EXPECT_EQ(plan[0], 2u);
  EXPECT_EQ(plan[1], 0u);
  EXPECT_EQ(plan[2], 0u);

  // In-flight requests suppress re-planning of the same deficit.
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  plan = mgr.plan(pool, now, now_us);
  EXPECT_EQ(plan[0], 0u);

  // A request whose reply never arrives (lost packet / MS-side error with
  // no response) times out: the deficit reopens and backoff engages
  // instead of the planner wedging on a phantom in-flight entry.
  now_us += cfg.request_timeout_us + 1;
  plan = mgr.plan(pool, now, now_us);
  EXPECT_EQ(plan[0], 2u);
  EXPECT_EQ(mgr.in_flight(core::EphIdLifetime::short_term), 0u);
  EXPECT_EQ(mgr.stats().timed_out, 2u);
  EXPECT_EQ(mgr.consecutive_failures(), 2u);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_issued(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 0u);

  // Failure: backoff stretches the next delay exponentially, success
  // resets it.
  crypto::ChaChaRng rng{99};
  const net::TimeUs base = mgr.next_delay(rng);
  EXPECT_GE(base, cfg.check_interval_us);
  EXPECT_LT(base, cfg.check_interval_us + cfg.jitter_us);
  mgr.on_failed(core::EphIdLifetime::short_term);
  mgr.on_failed(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 2u);
  const net::TimeUs backed_off = mgr.next_delay(rng);
  EXPECT_GE(backed_off, cfg.check_interval_us << 2);
  mgr.on_requested(core::EphIdLifetime::short_term, now_us);
  mgr.on_issued(core::EphIdLifetime::short_term);
  EXPECT_EQ(mgr.consecutive_failures(), 0u);
  EXPECT_EQ(mgr.stats().renewed, 2u);
  EXPECT_EQ(mgr.stats().failed, 4u);  // 2 timeouts + 2 explicit failures
}

}  // namespace
}  // namespace apna

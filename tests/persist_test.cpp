// Durability layer tests (ROADMAP item 4): CRC32C KATs, journal framing
// under every truncation point and bit flip, snapshot container round
// trips (MemVfs and the real filesystem), fault-injected degraded modes
// (short writes, fsync failures), and full AsState snapshot + journal
// recovery — including the property that recovery from ANY journal
// prefix equals a reference rebuild of the same mutation prefix, the
// corrupt-snapshot generation fallback, and concurrent sink appends.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/as_persist.h"
#include "core/as_state.h"
#include "crypto/rng.h"
#include "crypto/sha2.h"
#include "persist/crc32c.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "persist/vfs.h"
#include "services/persist_coordinator.h"
#include "util/hex.h"

namespace apna {
namespace {

using core::AsState;
using persist::crc32c;

Bytes bytes_of(const std::string& s) { return to_bytes(s); }

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

// ---- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical Castagnoli check value.
  const Bytes check = bytes_of("123456789");
  EXPECT_EQ(crc32c(span_of(check)), 0xE3069283u);
  const Bytes empty;
  EXPECT_EQ(crc32c(span_of(empty)), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  crypto::ChaChaRng rng(7);
  const Bytes data = rng.bytes(257);
  const std::uint32_t whole = crc32c(span_of(data));
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                            data.size() - 1, data.size()}) {
    const std::uint32_t head = crc32c(ByteSpan(data.data(), split));
    EXPECT_EQ(crc32c(ByteSpan(data.data() + split, data.size() - split), head),
              whole);
  }
}

// ---- journal framing ---------------------------------------------------------

struct Record {
  std::uint8_t type;
  Bytes payload;
  bool operator==(const Record&) const = default;
};

std::vector<Record> make_records(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  std::vector<Record> out;
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.type = static_cast<std::uint8_t>(1 + i % 8);
    r.payload = rng.bytes(i % 3 == 0 ? 0 : rng.next_u32() % 48);
    out.push_back(std::move(r));
  }
  return out;
}

void write_records(persist::JournalWriter& w, const std::vector<Record>& recs) {
  for (const Record& r : recs)
    ASSERT_TRUE(w.append(r.type, span_of(r.payload)));
  ASSERT_TRUE(w.commit().ok());
}

std::vector<Record> replay_all(ByteSpan data, persist::ReplayResult* res) {
  std::vector<Record> seen;
  const auto r = persist::replay_journal(data, [&](std::uint8_t t, ByteSpan p) {
    seen.push_back(Record{t, Bytes(p.begin(), p.end())});
  });
  if (res) *res = r;
  return seen;
}

TEST(Journal, RoundTrip) {
  persist::MemVfs vfs;
  const auto recs = make_records(32, 11);
  {
    persist::JournalWriter w(vfs, "d/j.log", true);
    write_records(w, recs);
    EXPECT_FALSE(w.degraded());
    EXPECT_EQ(w.stats().appended, recs.size());
    EXPECT_EQ(w.stats().dropped, 0u);
  }
  persist::ReplayResult res;
  std::vector<Record> seen;
  const auto rr = persist::replay_journal_file(
      vfs, "d/j.log", [&](std::uint8_t t, ByteSpan p) {
        seen.push_back(Record{t, Bytes(p.begin(), p.end())});
      });
  EXPECT_EQ(rr.records, recs.size());
  EXPECT_EQ(rr.bytes_discarded, 0u);
  EXPECT_FALSE(rr.torn());
  EXPECT_EQ(seen, recs);
  // A missing journal is empty, not an error.
  const auto missing = persist::replay_journal_file(
      vfs, "d/absent.log", [](std::uint8_t, ByteSpan) { FAIL(); });
  EXPECT_EQ(missing.records, 0u);
}

TEST(Journal, GroupCommitFlushesOnRecordThreshold) {
  persist::MemVfs vfs;
  persist::JournalConfig jc;
  jc.group_commit_records = 4;
  persist::JournalWriter w(vfs, "j.log", true, jc);
  const auto recs = make_records(7, 3);
  for (const Record& r : recs) ASSERT_TRUE(w.append(r.type, span_of(r.payload)));
  // 7 appends = one auto-commit at 4; records 5..7 still buffered.
  EXPECT_EQ(w.stats().commits, 1u);
  std::size_t on_disk = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++on_disk; });
  EXPECT_EQ(on_disk, 4u);
  ASSERT_TRUE(w.commit().ok());
  on_disk = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++on_disk; });
  EXPECT_EQ(on_disk, 7u);
}

/// Satellite property: for EVERY truncation point, the journal's effective
/// content is the longest valid frame prefix — never garbage, never a
/// throw, and consumed + discarded always accounts for every byte.
TEST(Journal, EveryTruncationYieldsLongestValidPrefix) {
  persist::MemVfs vfs;
  const auto recs = make_records(16, 23);
  {
    persist::JournalWriter w(vfs, "j.log", true);
    write_records(w, recs);
  }
  const Bytes full = vfs.read_all("j.log").take();
  // Frame boundaries: prefix sums of 8 + (1 + payload).
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  for (const Record& r : recs) {
    pos += 8 + 1 + r.payload.size();
    ends.push_back(pos);
  }
  ASSERT_EQ(pos, full.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    persist::ReplayResult res;
    const auto seen = replay_all(ByteSpan(full.data(), cut), &res);
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(seen.size(), expect) << "cut at " << cut;
    for (std::size_t i = 0; i < expect; ++i) ASSERT_EQ(seen[i], recs[i]);
    ASSERT_EQ(res.bytes_consumed + res.bytes_discarded, cut);
    ASSERT_EQ(res.torn(), cut != (expect == 0 ? 0 : ends[expect - 1]) ||
                              (expect == 0 && cut != 0));
  }
}

/// Flipping any single byte never crashes the reader; every record it
/// still reports is a bona fide prefix record (CRC killed the rest).
TEST(Journal, BitFlipsDropTheSuffixNeverGarbage) {
  persist::MemVfs vfs;
  const auto recs = make_records(12, 31);
  {
    persist::JournalWriter w(vfs, "j.log", true);
    write_records(w, recs);
  }
  const Bytes full = vfs.read_all("j.log").take();
  for (std::size_t off = 0; off < full.size(); ++off) {
    Bytes mut = full;
    mut[off] ^= 0x40;
    const auto seen = replay_all(span_of(mut), nullptr);
    ASSERT_LE(seen.size(), recs.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      // A flipped length prefix can only shrink the valid prefix; records
      // reported before the damage must match the originals byte for byte.
      ASSERT_EQ(seen[i], recs[i]) << "flip at " << off;
    }
  }
}

// ---- fault injection ---------------------------------------------------------

TEST(Journal, ShortWriteEntersCountedDegradedMode) {
  persist::MemVfs mem;
  persist::FaultVfs vfs(mem);
  persist::JournalConfig jc;
  jc.group_commit_records = 1;  // flush per record so the fault lands now
  persist::JournalWriter w(vfs, "j.log", true, jc);

  const Bytes p0 = bytes_of("first-record-payload");
  ASSERT_TRUE(w.append(1, span_of(p0)));
  ASSERT_FALSE(w.degraded());

  // Budget allows 10 more bytes: the next frame tears mid-write.
  vfs.faults().append_byte_budget = 10;
  const Bytes p1 = bytes_of("doomed-record-payload");
  EXPECT_FALSE(w.append(2, span_of(p1)));
  EXPECT_TRUE(w.degraded());
  EXPECT_EQ(vfs.counters().appends_failed, 1u);

  // Sticky: later appends are counted drops, the writer never throws.
  EXPECT_FALSE(w.append(3, span_of(p0)));
  const auto st = w.stats();
  EXPECT_EQ(st.appended, 1u);
  EXPECT_EQ(st.dropped, 2u);

  // The torn tail truncates at the last valid frame on replay.
  persist::ReplayResult res;
  const auto seen =
      replay_all(span_of(mem.read_all("j.log").take()), &res);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, p0);
  EXPECT_TRUE(res.torn());
  EXPECT_EQ(res.bytes_discarded, 10u);
}

TEST(Journal, FsyncFailureIsCountedNotSticky) {
  persist::MemVfs mem;
  persist::FaultVfs vfs(mem);
  persist::JournalConfig jc;
  jc.fsync = persist::FsyncPolicy::every_commit;
  persist::JournalWriter w(vfs, "j.log", true, jc);
  vfs.faults().fail_next_syncs = 1;

  const Bytes p = bytes_of("payload");
  ASSERT_TRUE(w.append(1, span_of(p)));
  EXPECT_FALSE(w.commit().ok());  // the barrier failed...
  EXPECT_FALSE(w.degraded());     // ...but the data reached the file
  EXPECT_EQ(w.stats().sync_failures, 1u);
  ASSERT_TRUE(w.append(2, span_of(p)));
  EXPECT_TRUE(w.commit().ok());

  std::size_t n = 0;
  persist::replay_journal_file(vfs, "j.log",
                               [&](std::uint8_t, ByteSpan) { ++n; });
  EXPECT_EQ(n, 2u);
}

// ---- snapshot container ------------------------------------------------------

TEST(Snapshot, RoundTripAndAtomicPublish) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(5);
  const Bytes payload = rng.bytes(4096);
  persist::SnapshotInfo info;
  info.generation = 7;
  info.seed = 42;
  info.git_sha = "deadbeef";
  ASSERT_TRUE(
      persist::write_snapshot_file(vfs, "s/snap", info, span_of(payload)).ok());
  EXPECT_FALSE(vfs.exists("s/snap.tmp"));  // temp file renamed away

  auto loaded = persist::read_snapshot_file(vfs, "s/snap");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->info.generation, 7u);
  EXPECT_EQ(loaded->info.seed, 42u);
  EXPECT_EQ(loaded->info.git_sha, "deadbeef");
  EXPECT_EQ(loaded->payload, payload);
}

TEST(Snapshot, AnySingleByteCorruptionIsDetected) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(9);
  const Bytes payload = rng.bytes(512);
  persist::SnapshotInfo info;
  info.generation = 1;
  info.git_sha = "x";
  ASSERT_TRUE(
      persist::write_snapshot_file(vfs, "snap", info, span_of(payload)).ok());
  const std::size_t sz = vfs.file_size("snap");
  for (std::size_t off = 0; off < sz; ++off) {
    ASSERT_TRUE(vfs.corrupt("snap", off, 0x01).ok());
    EXPECT_FALSE(persist::read_snapshot_file(vfs, "snap").ok())
        << "flip at " << off << " went undetected";
    ASSERT_TRUE(vfs.corrupt("snap", off, 0x01).ok());  // restore
  }
  EXPECT_TRUE(persist::read_snapshot_file(vfs, "snap").ok());
}

TEST(Snapshot, TruncationsAreDetected) {
  persist::MemVfs vfs;
  const Bytes payload = bytes_of("snapshot-payload-bytes");
  persist::SnapshotInfo info;
  info.generation = 3;
  ASSERT_TRUE(
      persist::write_snapshot_file(vfs, "snap", info, span_of(payload)).ok());
  const Bytes full = vfs.read_all("snap").take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ASSERT_TRUE(vfs.truncate("snap", cut).ok());
    EXPECT_FALSE(persist::read_snapshot_file(vfs, "snap").ok())
        << "truncation to " << cut << " went undetected";
    // Restore for the next iteration.
    auto f = vfs.open_append("snap", true).take();
    ASSERT_TRUE(f->append(span_of(full)).ok());
  }
}

TEST(Snapshot, SystemVfsRoundTrip) {
  char tmpl[] = "/tmp/apna_persist_XXXXXX";
  char* base = ::mkdtemp(tmpl);
  ASSERT_NE(base, nullptr);
  const std::string dir = std::string(base) + "/nested/deep";
  persist::SystemVfs vfs;
  ASSERT_TRUE(vfs.mkdirs(dir).ok());

  const Bytes payload = bytes_of("real-disk-payload");
  persist::SnapshotInfo info;
  info.generation = 2;
  info.git_sha = "cafe";
  const std::string snap = dir + "/snapshot-2.snap";
  ASSERT_TRUE(persist::write_snapshot_file(vfs, snap, info, span_of(payload)).ok());
  auto loaded = persist::read_snapshot_file(vfs, snap);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->payload, payload);
  EXPECT_EQ(loaded->info.generation, 2u);

  const auto recs = make_records(9, 77);
  const std::string jpath = dir + "/journal-2.log";
  {
    persist::JournalWriter w(vfs, jpath, true);
    write_records(w, recs);
  }
  persist::ReplayResult res;
  std::vector<Record> seen;
  persist::replay_journal_file(vfs, jpath, [&](std::uint8_t t, ByteSpan p) {
    seen.push_back(Record{t, Bytes(p.begin(), p.end())});
  });
  EXPECT_EQ(seen, recs);
  const auto names = vfs.list(dir);
  EXPECT_EQ(names.size(), 2u);

  for (const auto& n : names) (void)vfs.remove(dir + "/" + n);
  ::rmdir(dir.c_str());
  ::rmdir((std::string(base) + "/nested").c_str());
  ::rmdir(base);
}

// ---- AsState snapshot + journal recovery -------------------------------------

core::DnsRecord make_dns(const std::string& name, std::uint32_t ipv4) {
  core::DnsRecord rec;
  rec.name = name;
  rec.ipv4 = ipv4;
  rec.cert.aid = 64512;
  rec.cert.exp_time = 1'000'000;
  return rec;
}

/// The reference model a recovery must reproduce: plain maps driven by
/// the same mutation sequence.
struct Shadow {
  std::map<core::Hid, core::HostAsKeys> hosts;
  std::set<std::string> revoked_hex;  // EphId.hex() of revoked EphIDs
  std::set<core::Hid> revoked_hids;
  std::set<std::string> blocked;
  std::map<std::string, std::uint32_t> dns;  // name -> ipv4
  std::size_t issued = 0;
};

/// One deterministic mutation applied to (AsState, Shadow) and journaled
/// through `sink`. Returns the number of journal records emitted.
struct Mutator {
  AsState& as;
  Shadow& shadow;
  persist::Sink* sink;
  crypto::ChaChaRng rng{99};
  core::Hid next_hid = 100;
  std::vector<std::pair<core::EphId, core::Hid>> live_ephids{};

  std::size_t step(std::uint32_t op) {
    switch (op % 6) {
      case 0:
      case 1: {  // host upsert (the dominant record type)
        core::HostRecord rec;
        rec.hid = next_hid++;
        rng.fill(MutByteSpan(rec.keys.enc.data(), rec.keys.enc.size()));
        rng.fill(MutByteSpan(rec.keys.mac.data(), rec.keys.mac.size()));
        rec.subscriber_id = 1;
        as.host_db.upsert(rec);
        shadow.hosts[rec.hid] = rec.keys;
        core::emit_host_upsert(sink, rec);
        return 1;
      }
      case 2: {  // revoke a fresh EphID
        const core::Hid hid = 100 + rng.next_u32() % std::max<core::Hid>(
                                        1, next_hid - 100);
        const core::EphId e = as.codec.issue(hid, 2'000'000, rng);
        as.revoked.revoke_ephid(e, 2'000'000, hid);
        shadow.revoked_hex.insert(e.hex());
        live_ephids.emplace_back(e, hid);
        core::emit_revoke_ephid(sink, e, 2'000'000, hid);
        return 1;
      }
      case 3: {  // erase the oldest host still present
        if (shadow.hosts.empty()) return 0;
        const core::Hid hid = shadow.hosts.begin()->first;
        as.host_db.erase(hid);
        shadow.hosts.erase(hid);
        core::emit_host_erase(sink, hid);
        return 1;
      }
      case 4: {  // DNS publish (+ sometimes a block or erase)
        const std::string name =
            "svc" + std::to_string(rng.next_u32() % 64) + ".example";
        if (rng.next_u32() % 4 == 0 && !shadow.dns.empty()) {
          const std::string victim = shadow.dns.begin()->first;
          shadow.dns.erase(victim);
          core::emit_dns_erase(sink, victim);
          return 1;
        }
        const std::uint32_t ipv4 = rng.next_u32();
        shadow.dns[name] = ipv4;
        core::emit_dns_put(sink, make_dns(name, ipv4));
        return 1;
      }
      default: {  // issuance metadata, occasionally an escalation or block
        const std::uint32_t sub = rng.next_u32() % 3;
        if (sub == 0 && !live_ephids.empty()) {
          const core::Hid hid = live_ephids.back().second;
          as.revoked.revoke_hid(hid);
          shadow.revoked_hids.insert(hid);
          core::emit_revoke_hid(sink, hid);
          return 1;
        }
        if (sub == 1) {
          const std::string d =
              "blocked" + std::to_string(rng.next_u32() % 16) + ".example";
          shadow.blocked.insert(d);
          core::emit_domain_block(sink, d);
          return 1;
        }
        const core::Hid hid = 100 + rng.next_u32() % std::max<core::Hid>(
                                        1, next_hid - 100);
        const core::EphId e = as.codec.issue(hid, 3'000'000, rng);
        ++shadow.issued;
        core::emit_ephid_issued(sink, e, 3'000'000, hid);
        return 1;
      }
    }
  }
};

void expect_matches_shadow(const AsState& as, const core::AsStateRecovery& rv,
                           const Shadow& shadow, core::Hid hid_limit) {
  for (core::Hid hid = 100; hid < hid_limit; ++hid) {
    const auto it = shadow.hosts.find(hid);
    const auto got = as.host_db.find(hid);
    ASSERT_EQ(got.has_value(), it != shadow.hosts.end()) << "hid " << hid;
    if (got) {
      EXPECT_EQ(got->keys.enc, it->second.enc);
      EXPECT_EQ(got->keys.mac, it->second.mac);
    }
    EXPECT_EQ(as.revoked.is_hid_revoked(hid), shadow.revoked_hids.count(hid) > 0);
  }
  EXPECT_EQ(as.host_db.size(), shadow.hosts.size());
  EXPECT_EQ(as.revoked.size(), shadow.revoked_hex.size());
  EXPECT_EQ(rv.extras.issued.size(), shadow.issued);
  EXPECT_EQ(rv.extras.blocked_domains, shadow.blocked);
  std::map<std::string, std::uint32_t> dns;
  for (const auto& [name, r] : rv.extras.dns_records) {
    EXPECT_EQ(r.name, name);
    dns[name] = r.ipv4;
  }
  ASSERT_EQ(dns.size(), shadow.dns.size());
  EXPECT_EQ(dns, shadow.dns);
}

TEST(AsRecovery, SnapshotPlusJournalSuffixRebuildsEverything) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(1);
  AsState as(64512, core::AsSecrets::generate(rng));

  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  // Mutations straddle a mid-sequence snapshot: recovery must merge the
  // gen-2 image with the gen-2 journal suffix.
  for (std::uint32_t i = 0; i < 120; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.write_snapshot().ok());
  for (std::uint32_t i = 120; i < 240; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 2u);
  EXPECT_EQ(rv.records_malformed, 0u);
  EXPECT_EQ(rv.snapshots_skipped, 0u);
  EXPECT_EQ(rv.journal_bytes_discarded, 0u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
  // One-bump contract: the recovered epoch moves strictly past the
  // snapshot's stored epoch exactly once, regardless of how many replayed
  // records were revocations (replay restores without bumping).
  EXPECT_GT(rv.as->epoch.current(), rv.snapshot_epoch);
}

/// The satellite property test: recovery from ANY prefix of the journal
/// equals a reference rebuild of the same mutation prefix — and from any
/// mid-frame truncation, the longest-valid-frame-prefix rule applies.
TEST(AsRecovery, EveryJournalPrefixEqualsReferenceRebuild) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(2);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  // All mutations land in generation 1's journal; shadows[k] is the model
  // after the first k journal records.
  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  std::vector<Shadow> shadows{shadow};
  std::vector<core::Hid> hid_limits{mut.next_hid};
  for (std::uint32_t i = 0; i < 96; ++i) {
    if (mut.step(i * 0x9e3779b9u) == 1) {
      shadows.push_back(shadow);
      hid_limits.push_back(mut.next_hid);
    }
  }
  ASSERT_TRUE(coord.commit().ok());

  const std::string jpath = core::journal_path("as", 1);
  const Bytes full = vfs.read_all(jpath).take();
  // Frame boundary offsets (frame i ends at ends[i]).
  std::vector<std::size_t> ends;
  {
    std::size_t pos = 0;
    persist::replay_journal(span_of(full), [&](std::uint8_t, ByteSpan p) {
      pos += 8 + 1 + p.size();
      ends.push_back(pos);
    });
  }
  ASSERT_EQ(ends.size(), shadows.size() - 1);

  for (std::size_t cut = 0; cut <= full.size(); cut += 3) {
    ASSERT_TRUE(vfs.truncate(jpath, cut).ok());
    auto rec = AsState::recover(vfs, "as");
    ASSERT_TRUE(rec.ok()) << "cut at " << cut;
    auto rv = rec.take();
    std::size_t k = 0;
    while (k < ends.size() && ends[k] <= cut) ++k;
    ASSERT_EQ(rv.journal_records_replayed, k) << "cut at " << cut;
    expect_matches_shadow(*rv.as, rv, shadows[k], hid_limits[k]);
    // Restore the full journal for the next truncation point.
    auto f = vfs.open_append(jpath, true).take();
    ASSERT_TRUE(f->append(span_of(full)).ok());
  }
}

TEST(AsRecovery, CorruptNewestSnapshotFallsBackAGeneration) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(3);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.git_sha = "test";
  cc.keep_generations = 3;
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 60; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.write_snapshot().ok());  // generation 2
  for (std::uint32_t i = 60; i < 120; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.commit().ok());

  // Rot the newest snapshot. Recovery falls back to generation 1 and
  // replays journals 1 AND 2 — ending at the exact same state.
  const std::string snap2 = core::snapshot_path("as", 2);
  ASSERT_TRUE(vfs.corrupt(snap2, vfs.file_size(snap2) / 2, 0xff).ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 1u);
  EXPECT_EQ(rv.snapshots_skipped, 1u);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

/// Captures emitted records so a test can reuse a valid payload.
struct RecordingSink final : persist::Sink {
  std::vector<std::pair<std::uint8_t, Bytes>> records;
  bool append(std::uint8_t type, ByteSpan payload) override {
    records.emplace_back(type, Bytes(payload.begin(), payload.end()));
    return true;
  }
};

/// One valid record of every PersistRecordType, in type order.
RecordingSink one_record_per_type(crypto::ChaChaRng& rng) {
  RecordingSink sink;
  core::HostRecord hr;
  hr.hid = 7;
  rng.fill(MutByteSpan(hr.keys.enc.data(), hr.keys.enc.size()));
  core::EphId e;
  rng.fill(MutByteSpan(e.bytes.data(), e.bytes.size()));
  core::emit_host_upsert(&sink, hr);
  core::emit_host_erase(&sink, 7);
  core::emit_revoke_ephid(&sink, e, 2'000'000, 7);
  core::emit_revoke_hid(&sink, 7);
  core::emit_ephid_issued(&sink, e, 3'000'000, 7);
  core::emit_domain_block(&sink, "blocked.example");
  core::emit_dns_put(&sink, make_dns("svc.example", 0x0a000001));
  core::emit_dns_erase(&sink, "svc.example");
  for (std::size_t i = 0; i < sink.records.size(); ++i)
    EXPECT_EQ(sink.records[i].first, i + 1);
  return sink;
}

TEST(AsRecovery, MalformedPayloadInsideValidFrameIsSkippedAndCounted) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(4);
  AsState as(64512, core::AsSecrets::generate(rng));
  persist::SnapshotInfo info;
  info.generation = 1;
  core::AsExtras extras;
  ASSERT_TRUE(vfs.mkdirs("as").ok());
  ASSERT_TRUE(core::write_as_snapshot(vfs, "as", as, extras, info).ok());

  persist::JournalWriter jw(vfs, core::journal_path("as", 1), true);
  core::HostRecord hr;
  hr.hid = 100;
  rng.fill(MutByteSpan(hr.keys.enc.data(), hr.keys.enc.size()));
  core::emit_host_upsert(&jw, hr);
  // CRC-valid frames, truncated payloads: every record type's valid body
  // minus its last byte, each followed by a valid record.
  const RecordingSink valid = one_record_per_type(rng);
  ASSERT_EQ(valid.records.size(), 8u);
  for (std::size_t i = 0; i < valid.records.size(); ++i) {
    const auto& [type, payload] = valid.records[i];
    ASSERT_TRUE(jw.append(type, ByteSpan(payload.data(), payload.size() - 1)))
        << "type " << int(type);
    core::emit_host_erase(&jw, static_cast<core::Hid>(900 + i));
  }
  ASSERT_TRUE(jw.commit().ok());

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  // Replayed counts records that APPLIED; the truncated frames are tallied
  // as malformed instead, never dropped on the floor.
  EXPECT_EQ(rv.journal_records_replayed, 9u);
  EXPECT_EQ(rv.records_malformed, 8u);
  EXPECT_TRUE(rv.as->host_db.find(100).has_value());  // survivors applied
  EXPECT_FALSE(rv.as->host_db.find(7).has_value());
  EXPECT_EQ(rv.as->revoked.size(), 0u);
  EXPECT_FALSE(rv.as->revoked.is_hid_revoked(7));
  EXPECT_TRUE(rv.extras.issued.empty());
  EXPECT_TRUE(rv.extras.blocked_domains.empty());
  EXPECT_TRUE(rv.extras.dns_records.empty());
}

/// The live coordinator folds through the same AsExtras::apply: a
/// truncated above-core payload is journaled but moves no aggregate.
TEST(Coordinator, MalformedAboveCorePayloadsAreJournaledNotFolded) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(5);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator coord(vfs, "as", as);
  ASSERT_TRUE(coord.start().ok());

  const RecordingSink valid = one_record_per_type(rng);
  // ephid_issued, domain_block and dns_put, whole: one of each tracked.
  for (std::size_t i = 4; i < 7; ++i) {
    const auto& [type, payload] = valid.records[i];
    ASSERT_TRUE(coord.append(type, span_of(payload)));
  }
  const auto before = coord.stats();
  EXPECT_EQ(before.issued_tracked, 1u);
  EXPECT_EQ(before.blocked_tracked, 1u);
  EXPECT_EQ(before.dns_tracked, 1u);

  // The four above-core types, each minus its last byte.
  for (std::size_t i = 4; i < 8; ++i) {
    const auto& [type, payload] = valid.records[i];
    ASSERT_TRUE(coord.append(type, ByteSpan(payload.data(), payload.size() - 1)));
  }
  const auto after = coord.stats();
  EXPECT_EQ(after.journal.appended, before.journal.appended + 4);
  EXPECT_EQ(after.issued_tracked, before.issued_tracked);
  EXPECT_EQ(after.blocked_tracked, before.blocked_tracked);
  EXPECT_EQ(after.dns_tracked, before.dns_tracked);
}

/// The on-disk format is pinned by size and SHA-256 of every file a fixed
/// mutation history leaves behind: a codec refactor must not move a byte.
TEST(AsPersistFormat, JournalAndSnapshotBytesArePinned) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(42);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.git_sha = "golden";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 60; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.write_snapshot().ok());
  for (std::uint32_t i = 60; i < 120; ++i) mut.step(i * 2654435761u);
  ASSERT_TRUE(coord.commit().ok());

  const struct {
    std::string path;
    std::size_t size;
    const char* sha256;
  } pinned[] = {
      {core::journal_path("as", 1), 5267,
       "e4dc725ed8194dfc58441a1e71c7483d046185d7531c3c8256ff9cb0d1274c89"},
      {core::journal_path("as", 2), 5047,
       "237b6bd1472412288f9a58356aa3589001684bca9caa52422c599f44460dcfd3"},
      {core::snapshot_path("as", 1), 272,
       "7f523ada2e40adcea9040c4729de1d7b42b2367bc66c66cfdc1be35c1e8a08f5"},
      {core::snapshot_path("as", 2), 3742,
       "538236ce607aaab9d62259e02fd1eeeedddbc82656253925243e62f5f624708a"},
  };
  for (const auto& f : pinned) {
    auto data = vfs.read_all(f.path);
    ASSERT_TRUE(data.ok()) << f.path;
    EXPECT_EQ(data->size(), f.size) << f.path;
    const auto digest = crypto::Sha256::hash(span_of(*data));
    EXPECT_EQ(hex_encode(ByteSpan(digest.data(), digest.size())), f.sha256)
        << f.path;
  }

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 2u);
  EXPECT_EQ(rv.journal_records_replayed, 60u);
  EXPECT_EQ(rv.extras.issued.size(), 5u);
  EXPECT_EQ(rv.extras.blocked_domains.size(), 6u);
  EXPECT_EQ(rv.extras.dns_records.size(), 16u);
}

TEST(AsRecovery, EmptyDirectoryIsACleanError) {
  persist::MemVfs vfs;
  auto rec = AsState::recover(vfs, "nowhere");
  EXPECT_FALSE(rec.ok());
}

// ---- coordinator lifecycle ---------------------------------------------------

TEST(Coordinator, AutoSnapshotRotatesAndPrunesGenerations) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(6);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator::Config cc;
  cc.snapshot_every_records = 10;
  cc.keep_generations = 2;
  cc.git_sha = "test";
  services::PersistCoordinator coord(vfs, "as", as, cc);
  ASSERT_TRUE(coord.start().ok());

  Shadow shadow;
  Mutator mut{as, shadow, &coord};
  for (std::uint32_t i = 0; i < 45; ++i) mut.step(i);
  ASSERT_TRUE(coord.commit().ok());

  const auto st = coord.stats();
  EXPECT_GE(st.generation, 4u);  // 45 records / 10 per snapshot
  EXPECT_EQ(st.snapshots_written, st.generation);
  EXPECT_FALSE(coord.degraded());

  // Pruned to the last keep_generations snapshot/journal pairs.
  std::size_t snaps = 0;
  for (const auto& name : vfs.list("as"))
    if (name.find("snapshot-") == 0) ++snaps;
  EXPECT_EQ(snaps, 2u);
  // The retained tail still recovers to the reference state.
  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, st.generation);
  expect_matches_shadow(*rv.as, rv, shadow, mut.next_hid);
}

TEST(Coordinator, RestartResumesAtNextGeneration) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(8);
  AsState as(64512, core::AsSecrets::generate(rng));
  Shadow shadow;
  {
    services::PersistCoordinator coord(vfs, "as", as);
    ASSERT_TRUE(coord.start().ok());
    Mutator mut{as, shadow, &coord};
    for (std::uint32_t i = 0; i < 20; ++i) mut.step(i);
  }  // dtor commits

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  auto rv = rec.take();

  // A new coordinator over the recovered state starts at generation 2 and
  // leaves generation 1 on disk as the fallback.
  services::PersistCoordinator coord2(vfs, "as", *rv.as);
  coord2.seed(std::move(rv.extras));
  ASSERT_TRUE(coord2.start().ok());
  EXPECT_EQ(coord2.stats().generation, 2u);
  EXPECT_TRUE(vfs.exists(core::snapshot_path("as", 1)));
  EXPECT_TRUE(vfs.exists(core::snapshot_path("as", 2)));
}

TEST(AsPersistLayout, ListGenerationsSkipsNamesThatAreNotGenerations) {
  const std::vector<std::string> names = {
      "snapshot-3.snap",  "snapshot-1.snap",
      "snapshot-3.snap",  "snapshot-.snap",
      "snapshot-1a.snap", "snapshot-99999999999999999999999.snap",
      "snapshot-18446744073709551615.snap",  // u64 max still fits
      "snapshot--1.snap", "snapshot-+2.snap",
      "snapshot-4.log",   "journal-5.log",
      "snapshots-6.snap", "snapshot-7.snap.tmp",
  };
  EXPECT_EQ(core::list_generations(names, "snapshot", ".snap"),
            (std::vector<std::uint64_t>{1, 3, 18446744073709551615ull}));
  EXPECT_EQ(core::list_generations(names, "journal", ".log"),
            (std::vector<std::uint64_t>{5}));
}

/// A stray name whose digits overflow a u64 (or are not digits at all)
/// is ignored by recovery and by a restarting coordinator alike.
TEST(Coordinator, StrayGenerationNamesDoNotBreakRecoveryOrRestart) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(9);
  AsState as(64512, core::AsSecrets::generate(rng));
  {
    services::PersistCoordinator coord(vfs, "as", as);
    ASSERT_TRUE(coord.start().ok());
    core::emit_host_erase(&coord, 5);
    ASSERT_TRUE(coord.commit().ok());
  }
  for (const char* stray : {"as/journal-99999999999999999999999.log",
                            "as/snapshot-.snap", "as/journal-12a.log"}) {
    auto f = vfs.open_append(stray, true);
    ASSERT_TRUE(f.ok()) << stray;
    ASSERT_TRUE((*f)->append(span_of(bytes_of("stray"))).ok());
  }

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok()) << rec.error().detail;
  auto rv = rec.take();
  EXPECT_EQ(rv.snapshot_generation, 1u);
  EXPECT_EQ(rv.journal_records_replayed, 1u);

  services::PersistCoordinator coord2(vfs, "as", *rv.as);
  coord2.seed(std::move(rv.extras));
  ASSERT_TRUE(coord2.start().ok());
  EXPECT_EQ(coord2.stats().generation, 2u);
}

TEST(Coordinator, ConcurrentSinkAppendsRecoverCompletely) {
  persist::MemVfs vfs;
  crypto::ChaChaRng rng(10);
  AsState as(64512, core::AsSecrets::generate(rng));
  services::PersistCoordinator coord(vfs, "as", as);
  ASSERT_TRUE(coord.start().ok());

  // The real contention shape: the AA revokes from several threads while
  // the RS enrolls, all funneling through one sink (exercised under TSan
  // by the `persist` concurrency leg).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      crypto::ChaChaRng trng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const core::Hid hid = static_cast<core::Hid>(100 + t);
        const core::EphId e = as.codec.issue(hid, 2'000'000, trng);
        as.revoked.revoke_ephid(e, 2'000'000, hid);
        core::emit_revoke_ephid(&coord, e, 2'000'000, hid);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(coord.commit().ok());
  EXPECT_EQ(coord.stats().journal.appended,
            static_cast<std::uint64_t>(kThreads * kPerThread));

  auto rec = AsState::recover(vfs, "as");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->as->revoked.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace apna

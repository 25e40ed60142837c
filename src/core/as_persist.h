// Durable image of one AS's control-plane state (ROADMAP item 4).
//
// Two cooperating representations, both built on src/persist:
//
//  * JOURNAL RECORDS — one typed frame per control-plane mutation,
//    emitted at the mutation sites (RegistryService bootstrap,
//    AccountabilityAgent revocation/escalation/domain block,
//    ManagementService issuance, DnsZone put/erase) through the narrow
//    `persist::Sink` hook. The emit_* helpers below are all null-safe:
//    with no sink attached they cost one predicted branch, keeping the
//    hot paths' allocation gates intact.
//
//  * SNAPSHOTS — a full AsState image (secrets, HostDb, RevocationList,
//    VerdictEpoch, plus the above-core AsExtras: issued-EphID metadata,
//    AA domain blocks, DnsZone records) serialized into a
//    persist::snapshot container and published atomically as
//    `snapshot-<gen>.snap`; records that follow go to `journal-<gen>.log`.
//
// Every decision about the format lives in this module: each record body
// has one codec (shared by the journal and the snapshot image), and
// AsExtras::apply is the one fold of the above-core records, run by
// recovery and by the live PersistCoordinator alike.
//
// Recovery (AsState::recover, declared in core/as_state.h) loads the
// newest valid snapshot — falling back a generation on corruption —
// replays every journal from that generation on up to the last valid
// frame, and advances the verdict epoch once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/as_state.h"
#include "core/messages.h"
#include "persist/sink.h"
#include "persist/snapshot.h"
#include "persist/vfs.h"

namespace apna::core {

enum class PersistRecordType : std::uint8_t {
  host_upsert = 1,   // RS bootstrap / key replacement
  host_erase = 2,    // HID rotation, §VIII-G2 escalation
  revoke_ephid = 3,  // AA Fig-5 shutoff
  revoke_hid = 4,    // AA §VIII-G2 escalation
  ephid_issued = 5,  // MS Fig-3 issuance metadata
  domain_block = 6,  // AA/resolver Fig-5 domain policy rule
  dns_put = 7,       // DnsZone publish (§VII-A)
  dns_erase = 8,     // DnsZone unpublish
};

/// Issued-EphID metadata (who holds which EphID until when) — part of
/// the snapshot image so a recovered AS still knows what it vouched for.
struct IssuedEphIdMeta {
  EphId ephid;
  ExpTime exp_time = 0;
  Hid hid = 0;
};

// --- journal record emission (all null-safe on `sink`) --------------------
void emit_host_upsert(persist::Sink* sink, const HostRecord& rec);
void emit_host_erase(persist::Sink* sink, Hid hid);
void emit_revoke_ephid(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid);
void emit_revoke_hid(persist::Sink* sink, Hid hid);
void emit_ephid_issued(persist::Sink* sink, const EphId& ephid,
                       ExpTime exp_time, Hid hid);
void emit_domain_block(persist::Sink* sink, std::string_view domain);
void emit_dns_put(persist::Sink* sink, const DnsRecord& rec);
void emit_dns_erase(persist::Sink* sink, std::string_view name);

// --- directory layout -----------------------------------------------------
std::string snapshot_path(const std::string& dir, std::uint64_t generation);
std::string journal_path(const std::string& dir, std::uint64_t generation);

/// Parses "<stem>-<gen>.<ext>" names (e.g. "snapshot", ".snap") and
/// returns their generations ascending, without duplicates. Names whose
/// digits are empty, not all decimal or too large for a u64 are skipped.
std::vector<std::uint64_t> list_generations(
    const std::vector<std::string>& names, std::string_view stem,
    std::string_view ext);

/// State held above core that belongs in the snapshot image. Ordered
/// containers keep snapshots byte-stable for a given mutation history.
struct AsExtras {
  std::vector<IssuedEphIdMeta> issued;
  std::set<std::string> blocked_domains;
  std::map<std::string, DnsRecord> dns_records;  // keyed by name

  /// Folds one above-core journal record (ephid_issued, domain_block,
  /// dns_put, dns_erase). Returns false for a malformed payload and for
  /// every other record type, which this does not fold.
  bool apply(PersistRecordType type, ByteSpan payload);
};

/// Serializes the full image and publishes `snapshot-<gen>.snap`
/// (temp-file + rename; provenance from `info`). Does NOT rotate the
/// journal — the coordinator owning the JournalWriter does that.
Result<void> write_as_snapshot(persist::Vfs& vfs, const std::string& dir,
                               const AsState& as,
                               const AsExtras& extras,
                               const persist::SnapshotInfo& info);

/// What AsState::recover hands back: the rebuilt core state plus the
/// recovered metadata the layers above core re-install (services put the
/// DNS records back into a DnsZone, the resolver re-blocks domains).
struct AsStateRecovery {
  std::unique_ptr<AsState> as;
  std::uint64_t snapshot_generation = 0;
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t journal_records_replayed = 0;
  /// Torn/corrupt tail bytes discarded across the replayed journals.
  std::uint64_t journal_bytes_discarded = 0;
  /// Malformed payloads inside CRC-valid frames (skipped, counted).
  std::uint64_t records_malformed = 0;
  /// Corrupt snapshot generations fallen past before a valid one loaded.
  std::uint32_t snapshots_skipped = 0;
  AsExtras extras;
};

}  // namespace apna::core

#include "services/persist_coordinator.h"

#include <algorithm>
#include <utility>

namespace apna::services {
namespace {

void accumulate(persist::JournalWriter::Stats& into,
                const persist::JournalWriter::Stats& from) {
  into.appended += from.appended;
  into.dropped += from.dropped;
  into.commits += from.commits;
  into.sync_failures += from.sync_failures;
  into.degraded = into.degraded || from.degraded;
}

}  // namespace

PersistCoordinator::PersistCoordinator(persist::Vfs& vfs, std::string dir,
                                       core::AsState& as, Config cfg)
    : vfs_(vfs), dir_(std::move(dir)), as_(as), cfg_(cfg) {
  if (cfg_.keep_generations == 0) cfg_.keep_generations = 1;
}

PersistCoordinator::~PersistCoordinator() {
  if (journal_) (void)journal_->commit();
}

Result<void> PersistCoordinator::start() {
  if (auto made = vfs_.mkdirs(dir_); !made) return made;
  std::lock_guard lock(mu_);
  // Resume after the newest generation already on disk (never overwrite a
  // prior run's snapshot — recovery may still need it to fall back to).
  const std::vector<std::string> names = vfs_.list(dir_);
  const auto newest = [&](std::string_view stem, std::string_view ext) {
    const auto gens = core::list_generations(names, stem, ext);
    return gens.empty() ? std::uint64_t{0} : gens.back();
  };
  generation_ =
      std::max(newest("snapshot", ".snap"), newest("journal", ".log"));
  // The initial snapshot makes the secrets durable before the first
  // journal record exists — a crash at any later point is recoverable.
  return write_snapshot_locked();
}

void PersistCoordinator::seed(core::AsExtras extras) {
  std::lock_guard lock(mu_);
  extras_ = std::move(extras);
}

bool PersistCoordinator::append(std::uint8_t type, ByteSpan payload) {
  std::lock_guard lock(mu_);
  if (!journal_) return false;  // start() not run / failed — not durable

  // Fold the above-core records into the snapshot's extras; a payload
  // that fails to decode still goes to the journal (recovery counts it
  // as malformed).
  (void)extras_.apply(static_cast<core::PersistRecordType>(type), payload);

  const bool appended = journal_->append(type, payload);
  if (appended && cfg_.snapshot_every_records != 0 &&
      ++records_since_snapshot_ >= cfg_.snapshot_every_records) {
    // Periodic cadence: a failed snapshot is counted and retried after
    // the next batch of records; journaling continues either way.
    (void)write_snapshot_locked();
  }
  return appended;
}

Result<void> PersistCoordinator::write_snapshot() {
  std::lock_guard lock(mu_);
  return write_snapshot_locked();
}

Result<void> PersistCoordinator::write_snapshot_locked() {
  // Flush the outgoing journal first: the snapshot must supersede every
  // record in generation g's journal, or rotation would lose the tail
  // still sitting in the group-commit buffer.
  if (journal_) {
    if (auto committed = journal_->commit(); !committed) {
      ++snapshot_failures_;
      return committed;
    }
  }

  const std::uint64_t next = generation_ + 1;
  persist::SnapshotInfo info;
  info.generation = next;
  info.seed = cfg_.seed;
  info.git_sha = cfg_.git_sha;

  if (auto written = core::write_as_snapshot(vfs_, dir_, as_, extras_, info);
      !written) {
    ++snapshot_failures_;
    return written;  // keep journaling into the current generation
  }

  if (journal_) accumulate(journal_base_, journal_->stats());
  journal_ = std::make_unique<persist::JournalWriter>(
      vfs_, core::journal_path(dir_, next), /*truncate=*/true, cfg_.journal);
  generation_ = next;
  records_since_snapshot_ = 0;
  ++snapshots_written_;

  // Prune generations older than the retention window; best effort — a
  // leftover file only costs disk, never correctness.
  if (next > cfg_.keep_generations) {
    const std::uint64_t cutoff = next - cfg_.keep_generations;
    const std::vector<std::string> names = vfs_.list(dir_);
    for (std::uint64_t g : core::list_generations(names, "snapshot", ".snap"))
      if (g <= cutoff) (void)vfs_.remove(core::snapshot_path(dir_, g));
    for (std::uint64_t g : core::list_generations(names, "journal", ".log"))
      if (g <= cutoff) (void)vfs_.remove(core::journal_path(dir_, g));
  }
  return Result<void>::success();
}

Result<void> PersistCoordinator::commit() {
  std::lock_guard lock(mu_);
  if (!journal_) return Result<void>(Errc::internal, "coordinator not started");
  return journal_->commit();
}

bool PersistCoordinator::degraded() const {
  std::lock_guard lock(mu_);
  return journal_base_.degraded || (journal_ && journal_->degraded());
}

PersistCoordinator::Stats PersistCoordinator::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.journal = journal_base_;
  if (journal_) accumulate(s.journal, journal_->stats());
  s.snapshots_written = snapshots_written_;
  s.snapshot_failures = snapshot_failures_;
  s.generation = generation_;
  s.issued_tracked = extras_.issued.size();
  s.blocked_tracked = extras_.blocked_domains.size();
  s.dns_tracked = extras_.dns_records.size();
  return s;
}

}  // namespace apna::services

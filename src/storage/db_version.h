#ifndef MAGIC_STORAGE_DB_VERSION_H_
#define MAGIC_STORAGE_DB_VERSION_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/database.h"
#include "util/annotated_mutex.h"

namespace magic {

/// One immutable published database version. Holds a structural-sharing
/// Database snapshot (a map of shared_ptr<Relation> slots — relations are
/// shared with the base until the base copy-on-writes them) and the
/// version number readers and the AnswerCache key by. Readers pin one of
/// these for a whole evaluation; nothing in it ever mutates, so no
/// read-side lock exists. Retirement is the shared_ptr refcount itself —
/// when the last pin (or the chain head) drops, the destructor reports the
/// retirement and the relations the snapshot was the last owner of are
/// freed.
class DatabaseVersion {
 public:
  DatabaseVersion(const Database& snapshot, uint64_t version,
                  std::atomic<uint64_t>* retired)
      : db_(snapshot), version_(version), retired_(retired) {}
  ~DatabaseVersion() {
    if (retired_ != nullptr) {
      retired_->fetch_add(1, std::memory_order_acq_rel);
    }
  }
  DatabaseVersion(const DatabaseVersion&) = delete;
  DatabaseVersion& operator=(const DatabaseVersion&) = delete;

  const Database& db() const { return db_; }
  uint64_t version() const { return version_; }

 private:
  const Database db_;
  const uint64_t version_;
  std::atomic<uint64_t>* const retired_;
};

/// The MVCC spine: a chain of immutable DatabaseVersions over one mutable
/// base Database that only Commit writes.
///
///   * Readers call Pin() at dispatch — a shared_ptr copy of the head
///     under a leaf mutex held for nothing else — and evaluate against the
///     pinned version's Database for as long as they like. A pin never
///     waits for a commit's batch and a commit never invalidates a pin.
///   * Writers call Commit(): the batch is applied to the base (shared
///     relations are cloned before mutation, so every pinned snapshot
///     keeps its exact tuple sets), and iff the batch net-changed a
///     relation, version N+1 replaces the head. No drain, no waiting on
///     in-flight fixpoints; a no-op batch publishes nothing and cached
///     answers stay warm.
///
/// A reader can never observe a torn version: the head only ever points
/// at a finished snapshot, taken after the batch was applied, so a pin
/// concurrent with a commit gets version N or N+1 whole.
class VersionChain {
 public:
  /// Publishes version 1 as a snapshot of `base` now. After construction
  /// `base` must change only through Commit.
  explicit VersionChain(const Database& base);

  /// The current version for this evaluation.
  std::shared_ptr<const DatabaseVersion> Pin() const EXCLUDES(head_mutex_);

  /// Current version number for the warm-hit inline probe: one atomic
  /// load, no pin.
  uint64_t current_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Applies a pre-validated batch to `base` (the Database this chain was
  /// constructed over) and publishes the next version iff the batch
  /// mutated a relation on net (`relations_mutated > 0`). The caller
  /// serializes Commit calls (QueryService's FIFO ticket does); concurrent
  /// Pin()s need nothing.
  WriteResult Commit(Database& base, const WriteBatch& batch)
      EXCLUDES(head_mutex_);

  /// Versions published so far, including the constructor's version 1.
  /// Versions are numbered 1, 2, ... in publication order, so this is
  /// the head's number.
  uint64_t versions_published() const { return current_version(); }
  /// Versions fully retired (destroyed after their last pin dropped).
  uint64_t versions_retired() const {
    return retired_.load(std::memory_order_acquire);
  }
  /// Versions still alive: the head plus any older versions kept alive
  /// only by reader pins.
  uint64_t versions_live() const {
    return versions_published() - versions_retired();
  }

 private:
  /// Retirement counter, written from DatabaseVersion destructors; must
  /// outlive head_ (declared first => destroyed last).
  std::atomic<uint64_t> retired_{0};
  /// head_->version(), readable without the mutex.
  std::atomic<uint64_t> version_{0};
  /// Held only to copy or replace head_; nothing is acquired under it.
  mutable Mutex head_mutex_{lock_rank::kVersionHead};
  std::shared_ptr<const DatabaseVersion> head_ GUARDED_BY(head_mutex_);
};

}  // namespace magic

#endif  // MAGIC_STORAGE_DB_VERSION_H_

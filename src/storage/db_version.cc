#include "storage/db_version.h"

#include <utility>

namespace magic {

VersionChain::VersionChain(const Database& base) {
  auto v1 = std::make_shared<const DatabaseVersion>(base, /*version=*/1,
                                                    &retired_);
  MutexLock lock(head_mutex_);
  head_ = std::move(v1);
  version_.store(1, std::memory_order_release);
}

std::shared_ptr<const DatabaseVersion> VersionChain::Pin() const {
  MutexLock lock(head_mutex_);
  return head_;
}

WriteResult VersionChain::Commit(Database& base, const WriteBatch& batch) {
  WriteResult result = base.ApplyValidated(batch);
  // A no-op batch publishes nothing, so cached answers stay warm.
  if (result.relations_mutated == 0) return result;
  // Net change: build version N+1 off to the side, then swap it in.
  // Readers pinned to N keep their snapshot (its relations were cloned out
  // from under them, never mutated); new pins see N+1 from the swap on.
  // Commits are serialized by the caller, so version_ is ours to advance.
  const uint64_t next_version = version_.load(std::memory_order_relaxed) + 1;
  auto next =
      std::make_shared<const DatabaseVersion>(base, next_version, &retired_);
  std::shared_ptr<const DatabaseVersion> replaced;
  {
    MutexLock lock(head_mutex_);
    replaced = std::exchange(head_, std::move(next));
    version_.store(next_version, std::memory_order_release);
  }
  // `replaced` drops here, outside the lock: when no reader still pins
  // version N, its destructor frees what only N held.
  return result;
}

}  // namespace magic

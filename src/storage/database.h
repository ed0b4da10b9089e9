#ifndef MAGIC_STORAGE_DATABASE_H_
#define MAGIC_STORAGE_DATABASE_H_

#include <memory>
#include <unordered_map>

#include "ast/program.h"
#include "storage/relation.h"
#include "storage/write_batch.h"
#include "util/status.h"

namespace magic {

/// The extensional database D: a finite set of finite relations over a
/// Universe shared with the programs evaluated against it.
///
/// Sharing happens at two levels, so a write costs O(delta), not
/// O(relation):
///   * Relations live behind shared_ptr slots. Copying a Database is an
///     O(#relations) snapshot that shares every Relation object with the
///     original.
///   * A Relation is itself a persistent value (storage/relation.h): its
///     row pages and index shards sit behind shared_ptrs, and cloning it
///     copies only those pointer tables.
/// Mutation is copy-on-write at both levels. GetOrCreate and
/// ApplyValidated clone a relation whose slot is shared before touching
/// it, and the clone then copies only the pages and shards the batch
/// writes: one inserted tuple copies the last page and one shard per
/// built index; one retracted tuple at most two pages and two shards per
/// index. Untouched relations, pages and shards stay shared. A snapshot
/// taken before a write therefore keeps observing the exact pre-write
/// tuple sets forever, and a retired snapshot frees only what it alone
/// held. This is the storage half of the MVCC serving design:
/// VersionChain publishes these snapshots as immutable DatabaseVersions
/// that readers pin for the whole evaluation while writers mutate the
/// base without waiting for them.
class Database {
 public:
  explicit Database(std::shared_ptr<Universe> universe)
      : universe_(std::move(universe)) {}

  /// Structural-sharing snapshot (see class comment).
  Database(const Database&) = default;
  Database& operator=(const Database&) = delete;

  const std::shared_ptr<Universe>& universe() const { return universe_; }
  Universe& u() const { return *universe_; }

  /// Adds a ground fact; rejects non-ground or wrong-arity tuples.
  /// Returns OK for duplicates (idempotent insert).
  Status AddFact(const Fact& fact);

  /// Convenience: add p(args...) built from constants by name.
  Status AddFact(PredId pred, std::vector<TermId> args);

  /// Removes every fact of `pred` (a no-op when the relation was never
  /// created or is already empty). Requires exclusive access, like
  /// AddFact.
  void Clear(PredId pred);

  /// Applies one write batch: ops in insertion order, with
  /// `relations_mutated` counting the relations whose tuple set
  /// NET-changed — a duplicate-only batch mutates none, and neither does
  /// one whose transient changes cancel out (an insert of an absent tuple
  /// followed by its retract, or a Clear followed by reinsertion of the
  /// identical content); snapshots never see intermediate states, so no
  /// new version is owed. Built probe indices are patched by each op, so
  /// the first post-write probe pays no build. Returns what changed
  /// (including the bytes the batch copied), or the batch's validation
  /// error with nothing applied.
  /// Requires exclusive access over the whole call, like AddFact —
  /// QueryService::ApplyWrites provides that with its FIFO commit ticket;
  /// pinned snapshot readers need no exclusion at all because every
  /// shared relation is cloned before it is mutated.
  Result<WriteResult> Apply(const WriteBatch& batch);

  /// Apply without re-validating: the caller vouches that
  /// `batch.Validate(*universe())` passed (QueryService::ApplyWrites runs
  /// the check before queueing for its commit ticket, so the serialized
  /// window pays no second pass over the batch). Applying an unvalidated
  /// batch is a checked error on arity mismatches and undefined on the
  /// rest.
  WriteResult ApplyValidated(const WriteBatch& batch);

  /// Mutable access to one relation, cloning it first when the slot is
  /// shared with a snapshot (copy-on-write) so the snapshot's view never
  /// changes. The reference is stable until the next COW of the same
  /// pred; don't hold it across snapshot creation if you mean to mutate.
  Relation& GetOrCreate(PredId pred);
  const Relation* Find(PredId pred) const;

  size_t FactCount(PredId pred) const {
    const Relation* r = Find(pred);
    return r == nullptr ? 0 : r->size();
  }
  size_t TotalFacts() const;

  using RelationMap = std::unordered_map<PredId, std::shared_ptr<Relation>>;
  const RelationMap& relations() const { return relations_; }

 private:
  /// Adds `pred`'s (absent) relation, sharded for sharing.
  RelationMap::iterator Create(PredId pred);

  std::shared_ptr<Universe> universe_;
  RelationMap relations_;
};

}  // namespace magic

#endif  // MAGIC_STORAGE_DATABASE_H_

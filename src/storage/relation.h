#ifndef MAGIC_STORAGE_RELATION_H_
#define MAGIC_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/term.h"
#include "util/annotated_mutex.h"

namespace magic {

/// A set of ground tuples of fixed arity, stored as a persistent,
/// structurally shared value so that copy-on-write copies only what a
/// write touches.
///
/// Rows are appended in insertion order, which gives the semi-naive
/// evaluator its deltas for free: the delta of an iteration is a row
/// range [prev_size, cur_size). Only Retract, which never runs inside a
/// fixpoint, reorders rows.
///
/// Layout:
///   * Rows live in fixed-size pages of kPageRows rows, each held by a
///     shared_ptr. Row r is slot (r % kPageRows) of page (r / kPageRows),
///     so `Row()` is one page-table lookup more than a flat array. Only
///     the last page grows (the first page starts small and doubles up to
///     a full page, so tiny relations stay tiny).
///   * Every hash index — the dedup index (the all-columns mask) and each
///     per-mask probe index — is a table of 2^bits shards held by
///     shared_ptr, a key's shard chosen by the high bits of its mixed
///     hash. A shard maps key hash -> bucket of row ids in ascending
///     order, which is what lets `Cursor` binary-search a semi-naive
///     window's start and stop early at its end. Under Sharding::kSplit
///     the shard count doubles (each shard splits in two) as the relation
///     grows, so a shard holds at most ~kShardRows rows below the
///     kMaxShardBits cap. A split rewrites the whole index once, so its
///     O(rows) cost is paid once per doubling of the relation, not per
///     write. Shards are grouped, and the group table is what a clone
///     copies: one pointer per 2^kGroupBits shards.
///
/// Sharing and copying: the copy constructor copies only the page table
/// and each built index's group table — the pages, groups, shards and
/// buckets themselves are shared with the source. A mutation copies a
/// page, group or shard only when it is still shared (use_count() > 1)
/// and then works on the private copy, so one inserted tuple copies the
/// last page plus one group and one shard per built index, and one
/// retracted tuple copies the page of its row plus at most two groups and
/// two shards per index (the removed row's and the moved row's; the
/// vacated last slot is dropped, not written). A relation nobody shares
/// (an IDB relation growing inside a fixpoint, an EDB being loaded) owns
/// every page and shard and mutates them in place — it never pays a copy.
/// Freeing a clone frees only the pages and shards it alone held.
///
/// Index maintenance: every built index is kept current by the mutations
/// themselves. Insert appends the new row id to its bucket in each index
/// (ids only grow, so buckets stay ascending); Retract swaps the last row
/// into the hole and patches exactly two buckets per index: the removed
/// row's and the moved row's. Indices are never rebuilt. A mask's index
/// is built once, lazily, by the first probe that needs it.
///
/// Concurrency contract: `Insert`, `Retract` and `Clear` require
/// exclusive access — rows are written single-threaded, e.g. while
/// loading an EDB, inside one evaluator's fixpoint, or on the writer's
/// private clone. Once the rows are quiescent, all const members
/// including `Probe` are safe to call from any number of threads
/// concurrently: the lazy per-mask index build that Probe performs under
/// `const` runs behind `index_mutex_`, and a finished index is published
/// into an immutable snapshot table (atomic pointer, release/acquire), so
/// steady-state probes are a single acquire load with no read-side lock.
/// Under the MVCC write path a relation a pinned DatabaseVersion can
/// reach is never mutated: Database clones it (cheaply, above) and the
/// clone copies every shared page or shard before writing to it. That is
/// also why the use_count() test is sound: the writer's clone shares a
/// page or shard only with the published head (alive for the whole
/// batch), so a count of 1 means the writer made that copy itself.
class Relation {
 public:
  /// Whether the indices split into shards as the relation grows. A
  /// relation that versions share (every Database-owned one) splits, so
  /// copy-on-write copies one small shard; a relation private to one
  /// evaluation (IDB, magic and supplementary relations) keeps a single
  /// shard per index — it is never cloned, and splitting would only cost
  /// it.
  enum class Sharding { kSingle, kSplit };

  explicit Relation(uint32_t arity, Sharding sharding = Sharding::kSingle);

  /// Copy-on-write clone: shares every row page and every built index
  /// (dedup included) with the source, copying only their pointer tables.
  /// Safe to call while other threads probe the SOURCE (its index set is
  /// read under its mutex); the clone itself is invisible to them until
  /// the caller publishes it.
  Relation(const Relation& other);
  Relation& operator=(const Relation&) = delete;

  uint32_t arity() const { return arity_; }
  size_t size() const { return arity_ == 0 ? zero_ary_count_ : rows_; }

  /// Inserts a tuple; returns true if it was new. Also appends the row to
  /// every built index.
  bool Insert(std::span<const TermId> tuple);

  /// Removes one tuple; returns true if it was present, false (changing
  /// nothing) for an absent tuple. Removal is swap-with-last (row order
  /// is not semantic at rest): the last row takes the removed row's id,
  /// and each built index patches the two buckets involved, so the call
  /// is O(arity + buckets touched) and a batch of K retracts costs O(K).
  /// Requires exclusive access, like Insert.
  bool Retract(std::span<const TermId> tuple);

  /// Removes every tuple; built indices stay built (and empty). A no-op
  /// on an already-empty relation. Requires exclusive access, like Insert.
  void Clear();

  bool Contains(std::span<const TermId> tuple) const;

  /// Returns the row index of `tuple`, or nullopt if absent.
  std::optional<uint32_t> FindRow(std::span<const TermId> tuple) const;

  std::span<const TermId> Row(size_t row) const {
    return std::span<const TermId>(RowData(row), arity_);
  }

  /// Bytes of row pages and index shards held by this relation that
  /// `base` does not hold at the same position (all of them when `base`
  /// is null). After a copy-on-write batch this is what the batch copied
  /// or wrote afresh; the page and shard pointer tables themselves are
  /// not counted. Requires that neither relation is being mutated.
  size_t BytesNotSharedWith(const Relation* base) const;

  /// Appends to `out` the rows in [from_row, to_row) whose columns selected
  /// by `mask` (bit i = column i) equal `key[k]` for the k-th set bit.
  /// Builds the index for `mask` on first use.
  void Probe(uint64_t mask, std::span<const TermId> key, size_t from_row,
             size_t to_row, std::vector<uint32_t>* out) const;

  /// Allocation-free probe: yields the row indices Probe would produce,
  /// one Next() at a time, with no output vector. The cursor borrows the
  /// relation, the key storage, and (for mask != 0) the index bucket it
  /// iterates, so it is only valid while none of those change: this
  /// relation must not be mutated while the cursor is live (mutating a
  /// different relation, or building a different mask's index, is fine —
  /// Index objects are stable once created). The compiled join loop
  /// guarantees this by routing self-recursive literals (whose relation
  /// grows mid-rule) through the copy-out Probe instead.
  class Cursor {
   public:
    /// Sentinel returned when the cursor is exhausted.
    static constexpr uint32_t kDone = 0xFFFFFFFFu;

    /// Next matching row index in ascending order, or kDone.
    uint32_t Next() {
      if (bucket_ == nullptr) {  // scan path (mask == 0)
        if (pos_ >= end_) return kDone;
        return static_cast<uint32_t>(pos_++);
      }
      while (pos_ < end_) {
        const uint32_t row = (*bucket_)[pos_++];
        if (row >= to_) return kDone;  // bucket rows ascend: nothing further
        if (rel_->RowMatchesKey(mask_, key_, row)) return row;
      }
      return kDone;
    }

   private:
    friend class Relation;
    const Relation* rel_ = nullptr;
    const std::vector<uint32_t>* bucket_ = nullptr;  // null => scan path
    size_t pos_ = 0;   // scan: next row; bucket: next bucket position
    size_t end_ = 0;   // scan: to_row; bucket: bucket size
    size_t to_ = 0;    // bucket path: exclusive row bound
    uint64_t mask_ = 0;
    const TermId* key_ = nullptr;  // borrowed; caller keeps it alive
  };

  /// Opens a cursor over the rows Probe(mask, key, from_row, to_row, ...)
  /// would return. Builds the index for `mask` on first use (same ensure
  /// logic as Probe); the steady-state open is one acquire load, a hash,
  /// a shard pick and a bucket find — no allocation. `key` is borrowed
  /// and must outlive the cursor.
  Cursor OpenProbe(uint64_t mask, std::span<const TermId> key,
                   size_t from_row, size_t to_row) const;

  /// All row indices in [from_row, to_row) (scan path, mask == 0).
  static constexpr uint64_t kNoMask = 0;

  /// Rows per full page (a power of two).
  static constexpr size_t kPageShift = 10;
  static constexpr size_t kPageRows = size_t{1} << kPageShift;

 private:
  /// An index splits its shards in two once it holds more than
  /// kShardRows rows per shard, up to 2^kMaxShardBits shards. Shards are
  /// grouped 2^kGroupBits at a time; a group is the unit the shard table
  /// itself is shared in.
  static constexpr size_t kShardRows = 128;
  static constexpr uint32_t kMaxShardBits = 14;
  static constexpr uint32_t kGroupBits = 6;
  /// One shard of an index: key hash -> row ids in ascending order.
  using Buckets = std::unordered_map<uint64_t, std::vector<uint32_t>>;
  /// Up to 2^kGroupBits consecutive shards.
  using ShardGroup = std::vector<std::shared_ptr<Buckets>>;

  /// A two-level shard table: shard s is owned by slot
  /// (s mod 2^kGroupBits) of group (s / 2^kGroupBits). Cloning takes one
  /// reference per group, and a write copies the group and the shard it
  /// touches when shared. `shards` mirrors the owned shards as raw
  /// pointers (copied by value with the index), so a lookup is one load
  /// deeper than a single map, not three.
  struct Index {
    explicit Index(uint32_t bits = 0);

    uint32_t shard_bits;
    std::vector<std::shared_ptr<ShardGroup>> groups;
    std::vector<Buckets*> shards;

    /// The bucket for `hash`, or null.
    const std::vector<uint32_t>* Find(uint64_t hash) const;
  };
  static constexpr size_t kGroupMask = (size_t{1} << kGroupBits) - 1;

  /// Immutable snapshot of the indices built so far; a handful of (mask,
  /// index) pairs, so lookup is a scan. Republished (never mutated) when a
  /// new mask's index is built; retired snapshots are kept alive for
  /// readers still holding the old pointer.
  struct IndexTable {
    std::vector<std::pair<uint64_t, Index*>> entries;

    const Index* Find(uint64_t mask) const;
  };

  const TermId* RowData(size_t row) const {
    return pages_[row >> kPageShift].get() +
           (row & (kPageRows - 1)) * arity_;
  }
  bool RowEquals(size_t row, std::span<const TermId> tuple) const;
  uint64_t FullMask() const;
  uint64_t KeyHashForRow(uint64_t mask, size_t row) const;

  /// Appends `tuple` as row rows_, copying the last page first when it is
  /// shared or full-but-short (first-page growth).
  void AppendRow(std::span<const TermId> tuple);
  /// Writable pointer to `row`, copying its page first when shared.
  TermId* MutableRowData(size_t row);

  /// Shard `shard` of `index`, with it and its group copied first (and
  /// the copies installed) when another relation still holds them.
  static Buckets& MutableShard(Index& index, size_t shard);
  /// Index maintenance, each copying the one shard it writes when shared.
  void AddToIndex(Index& index, uint64_t hash, uint32_t row);
  void RemoveFromIndex(Index& index, uint64_t hash, uint32_t row);
  /// Renames `from` (the bucket's largest id) to `to` in bucket `hash`.
  void RenameInIndex(Index& index, uint64_t hash, uint32_t from,
                     uint32_t to);
  /// Doubles the shard count while the index holds more than kShardRows
  /// rows per shard.
  void MaybeSplit(Index& index);
  /// A fresh index for `mask` over the current rows.
  std::unique_ptr<Index> BuildIndex(uint64_t mask) const;

  /// Returns the index for `mask`, building it on first use (lock-free
  /// when already built; mutex-guarded build otherwise).
  const Index* EnsureIndex(uint64_t mask) const;
  /// Adds `index` to indices_ and publishes a grown snapshot table.
  void PublishIndex(uint64_t mask, std::unique_ptr<Index> index) const
      REQUIRES(index_mutex_);
  /// The published table, for the mutators (exclusive access).
  const IndexTable& Indices() const {
    return *index_table_.load(std::memory_order_acquire);
  }

  /// True when the columns of `row` selected by `mask` equal `key` (k-th
  /// set bit -> key[k]). Inline: this is the per-row check on the
  /// cursor hot path.
  bool RowMatchesKey(uint64_t mask, const TermId* key, size_t row) const {
    const TermId* r = RowData(row);
    size_t k = 0;
    for (uint32_t i = 0; i < arity_; ++i) {
      if (mask & (uint64_t{1} << i)) {
        if (r[i] != key[k++]) return false;
      }
    }
    return true;
  }

  uint32_t arity_;
  /// kMaxShardBits under Sharding::kSplit, else 0.
  uint32_t max_shard_bits_;
  size_t rows_ = 0;
  /// ceil(rows_ / kPageRows) pages (one null page for arity 0); every
  /// page but the last holds kPageRows rows, the last has room for
  /// last_page_rows_.
  std::vector<std::shared_ptr<TermId[]>> pages_;
  size_t last_page_rows_ = 0;
  size_t zero_ary_count_ = 0;  // 0-ary relations hold at most one tuple
  /// The all-columns index, which Insert dedups against; also served to
  /// full-mask probes. Null for arity 0. Owned by indices_.
  Index* dedup_ = nullptr;

  /// Never null: the constructor publishes the dedup entry (or an empty
  /// table for arity 0).
  mutable std::atomic<const IndexTable*> index_table_{nullptr};
  /// Guards the two owners below. A data-plane lock: legal under the
  /// commit tier as well as under any shared-side evaluation lock.
  mutable Mutex index_mutex_{lock_rank::kRelationIndex};
  mutable std::unordered_map<uint64_t, std::unique_ptr<Index>> indices_
      GUARDED_BY(index_mutex_);
  mutable std::vector<std::unique_ptr<IndexTable>> table_owner_
      GUARDED_BY(index_mutex_);
};

}  // namespace magic

#endif  // MAGIC_STORAGE_RELATION_H_

#include "storage/relation.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/hash.h"

namespace magic {

namespace {

/// The first page starts this small and doubles up to kPageRows, so the
/// many tiny relations a fixpoint creates do not each pay a full page.
constexpr size_t kFirstPageRows = 4;

/// Shard of `hash` under 2^bits shards: the high bits of a Fibonacci mix
/// (the raw HashRange output varies mostly in its low bits). The split
/// shift keeps bits == 0 well defined.
size_t ShardOf(uint64_t hash, uint32_t bits) {
  const uint64_t mixed = hash * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>((mixed >> 32) >> (32 - bits));
}

std::shared_ptr<TermId[]> AllocatePage(size_t terms) {
  return std::make_shared_for_overwrite<TermId[]>(terms);
}

}  // namespace

Relation::Index::Index(uint32_t bits) : shard_bits(bits) {
  const size_t count = size_t{1} << bits;
  const size_t per_group = std::min(count, kGroupMask + 1);
  groups.resize(count / per_group);
  shards.reserve(count);
  for (std::shared_ptr<ShardGroup>& group : groups) {
    group = std::make_shared<ShardGroup>(per_group);
    for (std::shared_ptr<Buckets>& shard : *group) {
      shard = std::make_shared<Buckets>();
      shards.push_back(shard.get());
    }
  }
}

const std::vector<uint32_t>* Relation::Index::Find(uint64_t hash) const {
  const Buckets& shard = *shards[ShardOf(hash, shard_bits)];
  auto it = shard.find(hash);
  return it == shard.end() ? nullptr : &it->second;
}

const Relation::Index* Relation::IndexTable::Find(uint64_t mask) const {
  for (const auto& [entry_mask, index] : entries) {
    if (entry_mask == mask) return index;
  }
  return nullptr;
}

Relation::Relation(uint32_t arity, Sharding sharding)
    : arity_(arity),
      max_shard_bits_(sharding == Sharding::kSplit ? kMaxShardBits : 0) {
  MutexLock lock(index_mutex_);
  if (arity_ == 0) {
    // One empty page slot, so Row(0) is the empty span with no branch on
    // the hot path; a 0-ary relation never appends a page.
    pages_.resize(1);
    auto table = std::make_unique<IndexTable>();
    index_table_.store(table.get(), std::memory_order_release);
    table_owner_.push_back(std::move(table));
    return;
  }
  auto dedup = std::make_unique<Index>();
  dedup_ = dedup.get();
  PublishIndex(FullMask(), std::move(dedup));
}

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      max_shard_bits_(other.max_shard_bits_),
      rows_(other.rows_),
      pages_(other.pages_),
      last_page_rows_(other.last_page_rows_),
      zero_ary_count_(other.zero_ary_count_) {
  // Copy the source's shard tables under its lock — pinned readers may be
  // building a new mask via EnsureIndex concurrently. The shards
  // themselves are shared; our mutations copy any we write to.
  std::vector<std::pair<uint64_t, std::unique_ptr<Index>>> copies;
  {
    MutexLock source_lock(other.index_mutex_);
    copies.reserve(other.indices_.size());
    for (const auto& [mask, index] : other.indices_) {
      copies.emplace_back(mask, std::make_unique<Index>(*index));
    }
  }
  MutexLock lock(index_mutex_);
  auto table = std::make_unique<IndexTable>();
  table->entries.reserve(copies.size());
  for (auto& [mask, index] : copies) {
    if (arity_ != 0 && mask == FullMask()) dedup_ = index.get();
    table->entries.emplace_back(mask, index.get());
    indices_.emplace(mask, std::move(index));
  }
  index_table_.store(table.get(), std::memory_order_release);
  table_owner_.push_back(std::move(table));
}

uint64_t Relation::FullMask() const {
  return arity_ >= 64 ? ~uint64_t{0} : (uint64_t{1} << arity_) - 1;
}

bool Relation::RowEquals(size_t row, std::span<const TermId> tuple) const {
  return std::equal(tuple.begin(), tuple.end(), RowData(row));
}

bool Relation::Insert(std::span<const TermId> tuple) {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (zero_ary_count_ > 0) return false;
    zero_ary_count_ = 1;
    return true;
  }
  const uint64_t hash = HashRange(tuple.begin(), tuple.end());
  // Read-only duplicate check first, so a duplicate copies nothing.
  if (const std::vector<uint32_t>* bucket = dedup_->Find(hash)) {
    for (uint32_t row : *bucket) {
      if (RowEquals(row, tuple)) return false;
    }
  }
  const uint32_t row = static_cast<uint32_t>(rows_);
  AppendRow(tuple);
  for (const auto& [mask, index] : Indices().entries) {
    AddToIndex(*index, index == dedup_ ? hash : KeyHashForRow(mask, row),
               row);
  }
  return true;
}

bool Relation::Retract(std::span<const TermId> tuple) {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (zero_ary_count_ == 0) return false;
    zero_ary_count_ = 0;
    return true;
  }
  std::optional<uint32_t> found = FindRow(tuple);
  if (!found.has_value()) return false;
  // Swap-with-last removal: only the moved row changes id, so each index
  // patches two buckets instead of being rebuilt. Row order is not
  // semantic for a quiescent EDB (it is a set; semi-naive delta windows
  // only matter inside a fixpoint, never across the write seam).
  const uint32_t row = *found;
  const uint32_t last = static_cast<uint32_t>(rows_) - 1;
  for (const auto& [mask, index] : Indices().entries) {
    RemoveFromIndex(*index, KeyHashForRow(mask, row), row);
    if (row != last) {
      RenameInIndex(*index, KeyHashForRow(mask, last), last, row);
    }
  }
  if (row != last) {
    // Destination first: if both rows share a page, its copy (when
    // shared) must happen before the source pointer is taken.
    TermId* dst = MutableRowData(row);
    std::memcpy(dst, RowData(last), arity_ * sizeof(TermId));
  }
  --rows_;
  // The vacated slot of the last page is simply dropped (no write, so a
  // shared last page is not copied); an emptied page leaves the table.
  if ((rows_ & (kPageRows - 1)) == 0) {
    pages_.pop_back();
    last_page_rows_ = pages_.empty() ? 0 : kPageRows;
  }
  return true;
}

void Relation::Clear() {
  if (size() == 0) return;  // already empty: nothing to release
  if (arity_ == 0) {
    zero_ary_count_ = 0;
    return;
  }
  rows_ = 0;
  pages_.clear();
  last_page_rows_ = 0;
  // Built indices stay published and become empty; shards shared with a
  // snapshot are released, not cleared.
  for (const auto& [mask, index] : Indices().entries) *index = Index(0);
}

bool Relation::Contains(std::span<const TermId> tuple) const {
  return FindRow(tuple).has_value();
}

std::optional<uint32_t> Relation::FindRow(
    std::span<const TermId> tuple) const {
  MAGIC_CHECK(tuple.size() == arity_);
  if (arity_ == 0) {
    if (zero_ary_count_ > 0) return 0u;
    return std::nullopt;
  }
  const std::vector<uint32_t>* bucket =
      dedup_->Find(HashRange(tuple.begin(), tuple.end()));
  if (bucket == nullptr) return std::nullopt;
  for (uint32_t row : *bucket) {
    if (RowEquals(row, tuple)) return row;
  }
  return std::nullopt;
}

uint64_t Relation::KeyHashForRow(uint64_t mask, size_t row) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  const TermId* r = RowData(row);
  for (uint32_t i = 0; i < arity_; ++i) {
    if (mask & (uint64_t{1} << i)) h = HashCombine(h, r[i]);
  }
  return h;
}

void Relation::AppendRow(std::span<const TermId> tuple) {
  const size_t slot = rows_ & (kPageRows - 1);
  if (slot == 0) {
    // rows_ is a page boundary, so pages_ holds exactly the full pages.
    last_page_rows_ = pages_.empty() ? kFirstPageRows : kPageRows;
    pages_.push_back(AllocatePage(last_page_rows_ * arity_));
  } else if (slot == last_page_rows_ || pages_.back().use_count() > 1) {
    // Grow a short first page, or copy a page a snapshot still shares.
    if (slot == last_page_rows_) last_page_rows_ *= 2;
    std::shared_ptr<TermId[]> page = AllocatePage(last_page_rows_ * arity_);
    std::memcpy(page.get(), pages_.back().get(),
                slot * arity_ * sizeof(TermId));
    pages_.back() = std::move(page);
  }
  std::memcpy(pages_.back().get() + slot * arity_, tuple.data(),
              arity_ * sizeof(TermId));
  ++rows_;
}

TermId* Relation::MutableRowData(size_t row) {
  const size_t page_index = row >> kPageShift;
  std::shared_ptr<TermId[]>& page = pages_[page_index];
  if (page.use_count() > 1) {
    const size_t page_rows =
        page_index + 1 == pages_.size() ? last_page_rows_ : kPageRows;
    std::shared_ptr<TermId[]> copy = AllocatePage(page_rows * arity_);
    std::memcpy(copy.get(), page.get(), page_rows * arity_ * sizeof(TermId));
    page = std::move(copy);
  }
  return page.get() + (row & (kPageRows - 1)) * arity_;
}

Relation::Buckets& Relation::MutableShard(Index& index, size_t shard) {
  std::shared_ptr<ShardGroup>& group = index.groups[shard >> kGroupBits];
  if (group.use_count() > 1) group = std::make_shared<ShardGroup>(*group);
  std::shared_ptr<Buckets>& slot = (*group)[shard & kGroupMask];
  if (slot.use_count() > 1) {
    slot = std::make_shared<Buckets>(*slot);
    index.shards[shard] = slot.get();
  }
  return *slot;
}

void Relation::AddToIndex(Index& index, uint64_t hash, uint32_t row) {
  // `row` is the largest id in the relation, so push_back keeps ascent.
  MutableShard(index, ShardOf(hash, index.shard_bits))[hash].push_back(row);
  MaybeSplit(index);
}

void Relation::RemoveFromIndex(Index& index, uint64_t hash, uint32_t row) {
  Buckets& shard = MutableShard(index, ShardOf(hash, index.shard_bits));
  auto it = shard.find(hash);
  MAGIC_CHECK(it != shard.end());
  std::vector<uint32_t>& bucket = it->second;
  auto pos = std::lower_bound(bucket.begin(), bucket.end(), row);
  MAGIC_CHECK(pos != bucket.end() && *pos == row);
  bucket.erase(pos);
  // Drop emptied buckets: under insert/retract churn the shard must track
  // live keys, not lifetime-total distinct ones.
  if (bucket.empty()) shard.erase(it);
}

void Relation::RenameInIndex(Index& index, uint64_t hash, uint32_t from,
                             uint32_t to) {
  Buckets& shard = MutableShard(index, ShardOf(hash, index.shard_bits));
  std::vector<uint32_t>& bucket = shard.find(hash)->second;
  MAGIC_CHECK(bucket.back() == from);
  bucket.pop_back();
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), to), to);
}

void Relation::MaybeSplit(Index& index) {
  if (index.shard_bits >= max_shard_bits_ ||
      rows_ <= (kShardRows << index.shard_bits)) {
    return;
  }
  // Shard i becomes shards 2i and 2i+1 (one more high bit). A shard only
  // this index holds gives up its nodes; a shared one is copied.
  Index split(index.shard_bits + 1);
  const size_t shards = size_t{1} << index.shard_bits;
  for (size_t s = 0; s < shards; ++s) {
    std::shared_ptr<ShardGroup>& group = index.groups[s >> kGroupBits];
    std::shared_ptr<Buckets>& old = (*group)[s & kGroupMask];
    // Sized for the next split, so the halves never rehash meanwhile.
    MutableShard(split, 2 * s).reserve(old->size());
    MutableShard(split, 2 * s + 1).reserve(old->size());
    if (group.use_count() == 1 && old.use_count() == 1) {
      while (!old->empty()) {
        auto node = old->extract(old->begin());
        const size_t to = ShardOf(node.key(), split.shard_bits);
        MutableShard(split, to).insert(std::move(node));
      }
    } else {
      for (const auto& [hash, bucket] : *old) {
        MutableShard(split, ShardOf(hash, split.shard_bits))
            .emplace(hash, bucket);
      }
    }
  }
  index = std::move(split);
}

std::unique_ptr<Relation::Index> Relation::BuildIndex(uint64_t mask) const {
  uint32_t bits = 0;
  while (bits < max_shard_bits_ && rows_ > (kShardRows << bits)) ++bits;
  auto index = std::make_unique<Index>(bits);
  for (size_t shard = 0; shard < (size_t{1} << bits); ++shard) {
    MutableShard(*index, shard).reserve(rows_ >> bits);
  }
  for (size_t row = 0; row < rows_; ++row) {
    const uint64_t hash = KeyHashForRow(mask, row);
    MutableShard(*index, ShardOf(hash, bits))[hash].push_back(
        static_cast<uint32_t>(row));
  }
  return index;
}

void Relation::PublishIndex(uint64_t mask,
                            std::unique_ptr<Index> index) const {
  auto grown = std::make_unique<IndexTable>();
  if (const IndexTable* current =
          index_table_.load(std::memory_order_relaxed)) {
    grown->entries = current->entries;
  }
  grown->entries.emplace_back(mask, index.get());
  indices_.emplace(mask, std::move(index));
  index_table_.store(grown.get(), std::memory_order_release);
  table_owner_.push_back(std::move(grown));
}

const Relation::Index* Relation::EnsureIndex(uint64_t mask) const {
  // Fast path: every published index is current (mutations maintain it),
  // so the hot path is one acquire load and a short scan, no lock.
  if (const Index* index = Indices().Find(mask)) return index;
  // Slow path: first probe for this mask. The mutex settles the race
  // between concurrent first probes; the loser finds the winner's index.
  MutexLock lock(index_mutex_);
  auto it = indices_.find(mask);
  if (it != indices_.end()) return it->second.get();
  std::unique_ptr<Index> built = BuildIndex(mask);
  const Index* index = built.get();
  PublishIndex(mask, std::move(built));
  return index;
}

size_t Relation::BytesNotSharedWith(const Relation* base) const {
  size_t bytes = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (base != nullptr && i < base->pages_.size() &&
        base->pages_[i] == pages_[i]) {
      continue;
    }
    const size_t page_rows =
        i + 1 == pages_.size() ? last_page_rows_ : kPageRows;
    bytes += page_rows * arity_ * sizeof(TermId);
  }
  const IndexTable* theirs = base == nullptr ? nullptr : &base->Indices();
  for (const auto& [mask, index] : Indices().entries) {
    const Index* other = theirs == nullptr ? nullptr : theirs->Find(mask);
    if (other != nullptr && other->shard_bits != index->shard_bits) {
      other = nullptr;  // resharded: nothing lines up
    }
    for (size_t g = 0; g < index->groups.size(); ++g) {
      const ShardGroup& group = *index->groups[g];
      const ShardGroup* other_group =
          other == nullptr ? nullptr : other->groups[g].get();
      if (other_group == &group) continue;
      bytes += sizeof(ShardGroup) +
               group.capacity() * sizeof(std::shared_ptr<Buckets>);
      for (size_t i = 0; i < group.size(); ++i) {
        const Buckets& shard = *group[i];
        if (other_group != nullptr && (*other_group)[i].get() == &shard) {
          continue;
        }
        // Node-based map: a bucket array plus one node (next pointer and
        // key/vector pair) and one id array per key.
        bytes += sizeof(Buckets) + shard.bucket_count() * sizeof(void*);
        for (const auto& [hash, bucket] : shard) {
          bytes += sizeof(void*) + sizeof(Buckets::value_type) +
                   bucket.capacity() * sizeof(uint32_t);
        }
      }
    }
  }
  return bytes;
}

void Relation::Probe(uint64_t mask, std::span<const TermId> key,
                     size_t from_row, size_t to_row,
                     std::vector<uint32_t>* out) const {
  MAGIC_CHECK(to_row <= size());
  if (mask == kNoMask) {
    for (size_t row = from_row; row < to_row; ++row) {
      out->push_back(static_cast<uint32_t>(row));
    }
    return;
  }
  const std::vector<uint32_t>* bucket =
      EnsureIndex(mask)->Find(HashRange(key.begin(), key.end()));
  if (bucket == nullptr) return;
  // Bucket rows ascend; verify key equality per row (the bucket is keyed
  // by hash only).
  for (auto it = std::lower_bound(bucket->begin(), bucket->end(),
                                  static_cast<uint32_t>(from_row));
       it != bucket->end() && *it < to_row; ++it) {
    if (RowMatchesKey(mask, key.data(), *it)) out->push_back(*it);
  }
}

Relation::Cursor Relation::OpenProbe(uint64_t mask,
                                     std::span<const TermId> key,
                                     size_t from_row, size_t to_row) const {
  MAGIC_CHECK(to_row <= size());
  Cursor c;
  c.rel_ = this;
  if (mask == kNoMask) {
    c.pos_ = from_row;
    c.end_ = to_row;
    return c;
  }
  const std::vector<uint32_t>* bucket =
      EnsureIndex(mask)->Find(HashRange(key.begin(), key.end()));
  if (bucket == nullptr) return c;  // empty scan: pos_ == end_ == 0
  // Bucket rows ascend, so the window's start is a binary search and its
  // end is the Next() early-out at to_.
  c.bucket_ = bucket;
  c.pos_ = static_cast<size_t>(
      std::lower_bound(bucket->begin(), bucket->end(),
                       static_cast<uint32_t>(from_row)) -
      bucket->begin());
  c.end_ = bucket->size();
  c.to_ = to_row;
  c.mask_ = mask;
  c.key_ = key.data();
  return c;
}

}  // namespace magic

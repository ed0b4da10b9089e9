#include "cache/answer_cache.h"

#include <bit>
#include <utility>

#include "util/hash.h"

namespace magic {

size_t AnswerCache::HashOf(uintptr_t tag, uint64_t version,
                           std::span<const TermId> seed) {
  uint64_t h = HashCombine(static_cast<uint64_t>(tag), version);
  return static_cast<size_t>(HashRange(seed.begin(), seed.end(), h));
}

AnswerCache::AnswerCache(obs::MetricsRegistry& metrics,
                         AnswerCacheOptions options)
    : options_(options) {
  size_t shards = std::bit_ceil(options_.shards == 0 ? 1 : options_.shards);
  shard_mask_ = shards - 1;
  shard_budget_ = options_.max_bytes / shards;
  shards_ = std::make_unique<Shard[]>(shards);
  hits_ = metrics.GetCounter("magicdb_answer_cache_hits", {},
                             "AnswerCache lookups that found their key");
  misses_ = metrics.GetCounter("magicdb_answer_cache_misses", {},
                               "AnswerCache lookups that found nothing");
  inserts_ = metrics.GetCounter("magicdb_answer_cache_inserts", {},
                                "Answers added to the AnswerCache");
  evictions_ = metrics.GetCounter(
      "magicdb_answer_cache_evictions", {},
      "AnswerCache entries evicted to stay within the byte budget");
  rejected_oversize_ = metrics.GetCounter(
      "magicdb_answer_cache_rejected_oversize", {},
      "Answers not cached because they exceed a shard's byte share");
  entries_ = metrics.GetGauge("magicdb_answer_cache_entries", {},
                              "AnswerCache resident entries (live)");
  bytes_ = metrics.GetGauge("magicdb_answer_cache_bytes", {},
                            "AnswerCache resident bytes (live)");
}

std::shared_ptr<const AnswerCache::Tuples> AnswerCache::Get(
    uintptr_t tag, std::span<const TermId> seed, uint64_t version) const {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(HashOf(tag, version, seed));
  std::shared_ptr<const Tuples> result;
  {
    MutexLock lock(shard.mutex);
    auto it = shard.table.find(KeyView{tag, version, seed});
    if (it != shard.table.end()) {
      it->second.last_used = ++shard.tick;
      result = it->second.tuples;  // pins the payload past eviction
    }
  }
  (result ? hits_ : misses_)->Add();
  return result;
}

size_t AnswerCache::EntryBytes(const Key& key, const Tuples& tuples) {
  // An estimate, not an exact malloc audit: payload words plus container
  // and hash-node overheads. Consistent over- vs under-counting matters
  // more than precision — the budget is advisory sizing, not an OS limit.
  constexpr size_t kNodeOverhead = 64;  // unordered_map node + bucket share
  size_t bytes = kNodeOverhead + sizeof(Key) + sizeof(Entry) +
                 key.seed.capacity() * sizeof(TermId) + sizeof(Tuples) +
                 tuples.capacity() * sizeof(std::vector<TermId>);
  for (const std::vector<TermId>& tuple : tuples) {
    bytes += tuple.capacity() * sizeof(TermId);
  }
  return bytes;
}

void AnswerCache::Put(uintptr_t tag, std::vector<TermId> seed, uint64_t version,
                      std::shared_ptr<const Tuples> tuples) {
  if (!enabled() || tuples == nullptr) return;
  Key key{tag, version, std::move(seed)};
  const size_t bytes = EntryBytes(key, *tuples);
  if (bytes > shard_budget_) {
    rejected_oversize_->Add();
    return;
  }
  Shard& shard = ShardFor(HashOf(key.tag, key.version, key.seed));
  MutexLock lock(shard.mutex);
  const bool inserted = shard.table.try_emplace(
      std::move(key), Entry{std::move(tuples), bytes, ++shard.tick}).second;
  if (!inserted) return;  // first writer wins; concurrent miss-fill race
  shard.bytes += bytes;
  inserts_->Add();
  entries_->Add(1);
  bytes_->Add(static_cast<int64_t>(bytes));

  // Byte-budgeted LRU: evict stalest entries until back under the shard's
  // share. Ticks are unique, so while more than one entry remains the
  // just-inserted entry (highest tick) is never the minimum.
  while (shard.bytes > shard_budget_ && shard.table.size() > 1) {
    auto victim = std::min_element(
        shard.table.begin(), shard.table.end(),
        [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        });
    shard.bytes -= victim->second.bytes;
    entries_->Add(-1);
    bytes_->Add(-static_cast<int64_t>(victim->second.bytes));
    evictions_->Add();
    shard.table.erase(victim);
  }
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.inserts = inserts_->value();
  stats.evictions = evictions_->value();
  stats.rejected_oversize = rejected_oversize_->value();
  stats.entries = static_cast<size_t>(entries_->value());
  stats.bytes = static_cast<size_t>(bytes_->value());
  stats.max_bytes = options_.max_bytes;
  return stats;
}

}  // namespace magic

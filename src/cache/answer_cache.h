#ifndef MAGIC_CACHE_ANSWER_CACHE_H_
#define MAGIC_CACHE_ANSWER_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/term.h"
#include "obs/metrics.h"
#include "util/annotated_mutex.h"

namespace magic {

struct AnswerCacheOptions {
  /// Total byte budget across all shards (answers + key/entry overhead,
  /// estimated). An entry whose own footprint exceeds the per-shard share
  /// is not cached at all. 0 disables the cache (Get always misses, Put is
  /// a no-op).
  size_t max_bytes = size_t{64} << 20;
  /// Shard count, rounded up to a power of two. More shards mean less
  /// lock contention and shorter eviction scans, at the cost of a coarser
  /// (per-shard) LRU horizon.
  size_t shards = 16;
};

/// A concurrent, sharded memo of completed query answers, keyed by
/// (form tag, seed tuple, database version).
///
/// The magic transformation specializes evaluation to a query's binding
/// seed, so a serving workload with repeated seeds recomputes identical
/// magic/IDB facts per request; this cache short-circuits that repetition.
/// The caller supplies an opaque `tag` naming the compiled query form (the
/// serving layer uses the PreparedQueryForm address) and the MVCC
/// `version` of the database snapshot the answer was computed against
/// (the serving layer uses VersionChain version numbers). An answer is a
/// function of exactly those three things, so an entry never needs
/// invalidating: any net EDB write publishes a new version, every entry
/// filled against an older snapshot becomes unreachable, and stale
/// entries stop being touched and age out of the byte-budgeted LRU.
///
/// Concurrency contract:
///   * Each shard is one mutex (rank kCacheShard, a data-plane leaf)
///     guarding a plain hash map. Get locks its shard, finds the key,
///     stamps the entry's recency, copies out the payload shared_ptr and
///     unlocks; Put inserts and evicts least-recently-used entries in
///     place under the same mutex. A Get may therefore wait behind one
///     eviction scan of its shard (O(entries per shard)).
///   * Callers hold no lock ranked kCacheShard or higher (the Debug rank
///     checker aborts otherwise), and nothing ranked is acquired under a
///     shard mutex.
///   * Answer payloads are immutable and shared_ptr-owned; a tuple set
///     returned by Get stays valid after the entry is evicted.
///   * Every counter lives in the MetricsRegistry passed at construction
///     (one cache per registry; the registry must outlive the cache):
///     `magicdb_answer_cache_{hits,misses,inserts,evictions,
///     rejected_oversize}` and the live `magicdb_answer_cache_{entries,
///     bytes}` gauges, which Put updates under the shard mutex. stats()
///     reads those cells.
class AnswerCache {
 public:
  using Tuples = std::vector<std::vector<TermId>>;

  explicit AnswerCache(obs::MetricsRegistry& metrics,
                       AnswerCacheOptions options = {});

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  bool enabled() const { return options_.max_bytes != 0; }

  /// Returns the cached answer for (tag, seed, version), or null on a miss.
  /// Stamps the entry's recency on a hit.
  std::shared_ptr<const Tuples> Get(uintptr_t tag,
                                    std::span<const TermId> seed,
                                    uint64_t version) const;

  /// Caches `tuples` for (tag, seed, version). First writer wins: if the key
  /// is already present (two threads missed and evaluated concurrently)
  /// the existing entry is kept. Oversized answers are dropped.
  void Put(uintptr_t tag, std::vector<TermId> seed, uint64_t version,
           std::shared_ptr<const Tuples> tuples);

  /// Point-in-time counters, read from the registry cells. `hits`/`misses`
  /// count Get outcomes; `inserts`/`evictions`/`rejected_oversize` count
  /// Put outcomes; `bytes` and `entries` describe current occupancy.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t rejected_oversize = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t max_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Key {
    uintptr_t tag = 0;
    uint64_t version = 0;
    std::vector<TermId> seed;
  };
  /// Borrowed view of a Key, so Get never allocates.
  struct KeyView {
    uintptr_t tag = 0;
    uint64_t version = 0;
    std::span<const TermId> seed;
  };
  static size_t HashOf(uintptr_t tag, uint64_t version,
                       std::span<const TermId> seed);
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const Key& key) const {
      return HashOf(key.tag, key.version, key.seed);
    }
    size_t operator()(const KeyView& key) const {
      return HashOf(key.tag, key.version, key.seed);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    static bool Eq(uintptr_t tag, uint64_t version,
                   std::span<const TermId> seed, const Key& key) {
      return key.tag == tag && key.version == version &&
             std::equal(seed.begin(), seed.end(), key.seed.begin(),
                        key.seed.end());
    }
    bool operator()(const Key& a, const Key& b) const {
      return Eq(a.tag, a.version, a.seed, b);
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return Eq(a.tag, a.version, a.seed, b);
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return Eq(b.tag, b.version, b.seed, a);
    }
  };

  struct Entry {
    std::shared_ptr<const Tuples> tuples;
    size_t bytes = 0;
    /// LRU recency: the shard's tick at the last hit or insert.
    uint64_t last_used = 0;
  };

  /// Cache-line aligned so neighbouring shard mutexes do not share a line.
  struct alignas(64) Shard {
    Mutex mutex{lock_rank::kCacheShard};
    std::unordered_map<Key, Entry, KeyHash, KeyEqual> table
        GUARDED_BY(mutex);
    size_t bytes GUARDED_BY(mutex) = 0;
    /// Strictly increasing per hit/insert, so ticks are unique per shard.
    uint64_t tick GUARDED_BY(mutex) = 0;
  };

  /// Shard selection uses the upper half of the hash so it stays
  /// uncorrelated with the table's bucket index (which consumes the low
  /// bits) while still addressing every shard for any sane shard count.
  /// The shift is half the operand width, so it is well-defined (and
  /// non-degenerate) even where size_t is 32 bits.
  Shard& ShardFor(size_t hash) const {
    constexpr int kHalf = std::numeric_limits<size_t>::digits / 2;
    return shards_[(hash >> kHalf) & shard_mask_];
  }

  static size_t EntryBytes(const Key& key, const Tuples& tuples);

  AnswerCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t shard_budget_ = 0;  // max_bytes / shard count
  std::unique_ptr<Shard[]> shards_;

  // Registry-owned cells; pointers are stable for the registry's life.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* rejected_oversize_ = nullptr;
  obs::Gauge* entries_ = nullptr;
  obs::Gauge* bytes_ = nullptr;
};

}  // namespace magic

#endif  // MAGIC_CACHE_ANSWER_CACHE_H_

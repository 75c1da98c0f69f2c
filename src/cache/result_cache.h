// Sharded LRU cache of full PTQ answers. Production twig workloads are
// heavily skewed — the same few twigs hit the same documents over and
// over — so after the block tree has amortized evaluation across mappings
// and the QueryCompiler has amortized compilation across requests, the
// remaining repeated cost is the evaluation itself. This cache removes
// it: an entry is one immutable RankedPtqResult (the PtqResult plus its
// ranked match sets, the form a corpus merge consumes), and a hit is a
// hash probe plus a refcount — Lookup hands out the shared entry. The
// corpus scheduler folds hits straight from the entry's ranked list; only
// the public single-document calls (Query, RunBatch) copy the PtqResult,
// once, at the API edge.
//
// Keying and invalidation: entries are keyed on (twig text, document
// identity, epoch, top-k, algorithm, prepared-pair id) — see
// cache/item_key.h. The epoch is bumped by the facade on every
// Prepare/AttachDocument *before* the new state is published, so an
// evaluation that raced the swap inserts under the old epoch and can
// never satisfy a lookup issued after it; the pair id changes with every
// (re-)preparation of a schema pair and keeps answers of different pairs
// apart even when they share a document. Stale answers are structurally
// unreachable, and Clear() merely reclaims their memory.
//
// Concurrency: N shards, each a mutex + intrusive LRU list; a key touches
// exactly one shard, so concurrent workers on distinct keys rarely
// contend. The byte budget — which counts both parts of every entry, each
// heap block at the size the allocator really holds for it — is split
// evenly across shards and enforced by LRU eviction at insert time.
#ifndef UXM_CACHE_RESULT_CACHE_H_
#define UXM_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/item_key.h"
#include "query/ptq.h"

namespace uxm {

/// \brief Identity of one cacheable evaluation (cache/item_key.h).
using ResultCacheKey = ItemKey;

struct ResultCacheOptions {
  size_t max_bytes = size_t{64} << 20;  ///< Total budget over all shards.
  int num_shards = 16;                  ///< Clamped to >= 1.
};

/// \brief Aggregated cache counters. hits/misses/... are cumulative since
/// construction; entries/bytes_in_use are the current footprint.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;      ///< Entries dropped to fit the byte budget.
  uint64_t invalidations = 0;  ///< Clear() calls.
  uint64_t pair_sweeps = 0;    ///< ErasePair() calls.
  uint64_t swept_entries = 0;  ///< Entries dropped by ErasePair() sweeps.
  size_t entries = 0;
  size_t bytes_in_use = 0;  ///< Approximate (see ApproxEntryBytes).
};

/// Approximate heap footprint of a PtqResult: the object plus every heap
/// block it owns, each counted as the chunk the allocator carves for it
/// (request plus size header, rounded up to 16 bytes, 32 at least — as
/// glibc's malloc does).
size_t ApproxPtqResultBytes(const PtqResult& result);

/// Approximate heap footprint of a cache entry's value, counted the same
/// way: the shared entry block, the PtqResult's blocks and its ranked
/// match sets' blocks (the byte-budget unit). Never below the summed
/// usable sizes of the entry's vector blocks.
size_t ApproxEntryBytes(const RankedPtqResult& entry);

/// \brief Mutex-striped, byte-budgeted LRU cache of RankedPtqResults.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached entry (refreshing its LRU position) or nullptr.
  /// The entry is shared, not copied: it stays alive for as long as the
  /// caller holds it, even if the cache evicts it meanwhile. Every call
  /// counts a hit or a miss, except that `count_miss = false` leaves a
  /// miss uncounted — for a caller that hands its misses to the
  /// ExecutionDriver, whose own probe counts them, so that each item is
  /// counted once.
  std::shared_ptr<const RankedPtqResult> Lookup(const ItemKeyRef& key,
                                                bool count_miss = true);

  /// Inserts or replaces `key`'s entry, then evicts LRU entries until the
  /// shard fits its budget. A single entry larger than a whole shard's
  /// budget is not cached (it would only thrash the shard).
  void Insert(const ItemKeyRef& key,
              std::shared_ptr<const RankedPtqResult> value);

  /// Drops every entry in every shard (invalidation).
  void Clear();

  /// Drops only the entries computed under prepared-pair id `pair`
  /// (re-preparing or removing ONE schema pair must not cost other
  /// pairs their hot answers). Returns the number of entries dropped.
  size_t ErasePair(uint64_t pair);

  ResultCacheStats Stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    ItemKey key;
    size_t hash = 0;  ///< ItemKeyRef::Hash of `key`
    std::shared_ptr<const RankedPtqResult> value;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;
  /// Full key hash -> entry. A multimap so the probe needs no owning key
  /// (heterogeneous lookup): it finds the hash's entries and compares the
  /// borrowed key against each (more than one only on a hash collision).
  using Index =
      std::unordered_multimap<size_t, LruList::iterator, PrehashedHash>;
  struct Shard {
    std::mutex mu;
    LruList lru;  ///< Front = most recently used.
    Index map;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(size_t hash);
  /// The index slot of `key` (hash `hash`) in `shard`, or map.end().
  static Index::iterator Find(Shard& shard, const ItemKeyRef& key,
                              size_t hash);
  /// Unlinks `entry` from `shard`'s index and LRU list and uncharges it.
  static void Drop(Shard& shard, LruList::iterator entry);

  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> pair_sweeps_{0};
  std::atomic<uint64_t> swept_entries_{0};
};

}  // namespace uxm

#endif  // UXM_CACHE_RESULT_CACHE_H_

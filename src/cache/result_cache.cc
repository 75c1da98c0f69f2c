#include "cache/result_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace uxm {

namespace {

/// The heap chunk glibc's malloc carves for a `requested`-byte block: the
/// request plus an 8-byte size header, rounded up to 16 bytes, 32 bytes
/// at least (0 for no block). Tiny vectors cost a whole chunk each, so
/// counting `capacity * sizeof` alone undercounts entries made of many
/// one- or two-element match lists. The count is a function of the
/// shape, not of malloc_usable_size: that one also reports the slack of
/// a recycled chunk, so two identical entries would be charged
/// differently depending on heap history.
size_t ChunkBytes(size_t requested) {
  if (requested == 0) return 0;
  return std::max<size_t>(32, (requested + sizeof(size_t) + 15) &
                                  ~size_t{15});
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return ChunkBytes(v.capacity() * sizeof(T));
}

/// Heap bytes of an answer list: its array plus every match list.
size_t AnswerListBytes(const std::vector<MappingAnswer>& answers) {
  size_t bytes = VectorBytes(answers);
  for (const MappingAnswer& a : answers) bytes += VectorBytes(a.matches);
  return bytes;
}

/// Per-entry bookkeeping beyond the value itself: the LRU list node (the
/// owned key, hash, value pointer, byte count and two links), the index
/// node and its bucket slot, and the key's twig text once it outgrows the
/// string's inline buffer.
size_t EntryOverheadBytes(const ItemKeyRef& key) {
  size_t bytes = ChunkBytes(sizeof(ItemKey) + 6 * sizeof(void*)) +
                 ChunkBytes(3 * sizeof(void*)) + sizeof(void*);
  if (key.twig.size() > std::string().capacity()) {
    bytes += ChunkBytes(key.twig.size() + 1);
  }
  return bytes;
}

}  // namespace

size_t ApproxPtqResultBytes(const PtqResult& result) {
  return sizeof(PtqResult) + AnswerListBytes(result.answers);
}

size_t ApproxEntryBytes(const RankedPtqResult& entry) {
  // The entry object shares one make_shared block with its control block
  // (two counts and a vtable pointer).
  return ChunkBytes(sizeof(RankedPtqResult) + 3 * sizeof(void*)) +
         AnswerListBytes(entry.result.answers) +
         AnswerListBytes(entry.ranked);
}

ResultCache::ResultCache(ResultCacheOptions options) {
  const int shards = std::max(1, options.num_shards);
  shard_budget_ = options.max_bytes / static_cast<size_t>(shards);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(size_t hash) {
  return *shards_[hash % shards_.size()];
}

ResultCache::Index::iterator ResultCache::Find(Shard& shard,
                                               const ItemKeyRef& key,
                                               size_t hash) {
  auto [it, end] = shard.map.equal_range(hash);
  for (; it != end; ++it) {
    if (key.Matches(it->second->key)) return it;
  }
  return shard.map.end();
}

void ResultCache::Drop(Shard& shard, LruList::iterator entry) {
  auto [it, end] = shard.map.equal_range(entry->hash);
  for (; it != end; ++it) {
    if (it->second == entry) {
      shard.map.erase(it);
      break;
    }
  }
  shard.bytes -= entry->bytes;
  shard.lru.erase(entry);
}

std::shared_ptr<const RankedPtqResult> ResultCache::Lookup(
    const ItemKeyRef& key, bool count_miss) {
  const size_t hash = key.Hash();
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = Find(shard, key, hash);
  if (it == shard.map.end()) {
    if (count_miss) ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ResultCache::Insert(const ItemKeyRef& key,
                         std::shared_ptr<const RankedPtqResult> value) {
  if (value == nullptr) return;
  const size_t bytes = ApproxEntryBytes(*value) + EntryOverheadBytes(key);
  if (bytes > shard_budget_) return;  // would evict the whole shard
  const size_t hash = key.Hash();
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = Find(shard, key, hash);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->bytes;
    shard.bytes += bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key.ToOwned(), hash, std::move(value), bytes});
    shard.map.emplace(hash, shard.lru.begin());
    shard.bytes += bytes;
  }
  ++shard.insertions;
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    Drop(shard, std::prev(shard.lru.end()));
    ++shard.evictions;
  }
}

size_t ResultCache::ErasePair(uint64_t pair) {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.pair != pair) {
        ++it;
        continue;
      }
      Drop(*shard, it++);
      ++dropped;
    }
  }
  pair_sweeps_.fetch_add(1, std::memory_order_relaxed);
  swept_entries_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.pair_sweeps = pair_sweeps_.load(std::memory_order_relaxed);
  stats.swept_entries = swept_entries_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->map.size();
    stats.bytes_in_use += shard->bytes;
  }
  return stats;
}

}  // namespace uxm

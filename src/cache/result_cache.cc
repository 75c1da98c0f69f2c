#include "cache/result_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace uxm {

size_t ApproxPtqResultBytes(const PtqResult& result) {
  size_t bytes = sizeof(PtqResult) +
                 result.answers.capacity() * sizeof(MappingAnswer);
  for (const MappingAnswer& a : result.answers) {
    bytes += a.matches.capacity() * sizeof(DocNodeId);
  }
  return bytes;
}

size_t ApproxEntryBytes(const RankedPtqResult& entry) {
  size_t bytes = ApproxPtqResultBytes(entry.result) +
                 sizeof(RankedPtqResult) - sizeof(PtqResult) +
                 entry.ranked.capacity() * sizeof(MappingAnswer);
  for (const MappingAnswer& a : entry.ranked) {
    bytes += a.matches.capacity() * sizeof(DocNodeId);
  }
  return bytes;
}

namespace {

/// Per-entry overhead beyond the value itself: the key string, the list
/// node and one hash-map slot (rough, but it keeps zillions of tiny
/// entries from reading as free).
size_t EntryOverheadBytes(const ItemKeyRef& key) {
  return key.twig.size() + sizeof(ItemKey) + 6 * sizeof(void*);
}

}  // namespace

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

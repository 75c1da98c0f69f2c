#include "cache/bound_cache.h"

#include <algorithm>
#include <mutex>

#include "plan/query_plan.h"

namespace uxm {

namespace {

/// The slot of `key` (full hash `hash`) in `index`, or index.end().
template <typename Index>
auto Find(Index& index, const ItemKeyRef& key, size_t hash) {
  auto [it, end] = index.equal_range(hash);
  for (; it != end; ++it) {
    if (key.Matches(it->second.key)) return it;
  }
  return index.end();
}

}  // namespace

std::optional<double> BoundCache::Lookup(const ItemKeyRef& key) const {
  const size_t hash = key.Hash();
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = Find(cache_, key, hash);
  if (it == cache_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.bound;
}

void BoundCache::Insert(const ItemKeyRef& key, double bound) {
  if (bound != kProvenEmptyBound) bound = std::max(bound, 0.0);
  const size_t hash = key.Hash();
  insertions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = Find(cache_, key, hash);
  if (it != cache_.end()) {
    it->second.bound = std::min(it->second.bound, bound);
    return;
  }
  if (max_entries_ > 0 && cache_.size() >= max_entries_) {
    cache_.clear();
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  cache_.emplace(hash, Slot{key.ToOwned(), bound});
}

void BoundCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
}

BoundCacheStats BoundCache::Stats() const {
  BoundCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  stats.entries = cache_.size();
  return stats;
}

}  // namespace uxm

// Per-(twig, document) answer-bound cache — the document-sensitive half
// of the corpus scheduler's Threshold-Algorithm bounds (ROADMAP item 4a).
//
// QueryPlan::AnswerUpperBound is pair-level: every document prepared
// under one pair shares one bound, so a homogeneous single-pair corpus
// can never prune — no item's bound ever falls below another's answers.
// This cache stores a per-(twig, document) refinement from two sound
// sources, and the scheduler prunes against min(pair_bound, doc_bound):
//
//   * realized bounds — after an item evaluates, its best collapsed
//     answer probability is recorded, or kProvenEmptyBound
//     (plan/query_plan.h) for an empty answer set. Evaluation is
//     deterministic in the full key below, so the realized value is an
//     EXACT bound for any later run with the same key.
//   * probe bounds — QueryPlan::DocumentAnswerUpperBound sums only the
//     selected relevant mappings that have at least one embedding whose
//     every query node binds to a source element with a matching
//     instance in the document's annotation. A mapping without such an
//     embedding provably contributes no answer (an empty candidate list
//     propagates to the twig root in both kernels), so the sum bounds
//     every answer the item can produce. When no selected mapping may
//     match, the probe returns kProvenEmptyBound instead of a sum.
//
// kProvenEmptyBound is a proof that the item has no answer. It lies
// below every race threshold, so the scheduler prunes such an item before
// dispatch even while its twig's top-k is unfilled; Insert stores it as
// is (the min with any stored bound is the sentinel).
//
// Insert keeps the MINIMUM of the stored and offered values: both
// sources are sound upper bounds, so their min is too (the realized
// bound typically refines the probe).
//
// Keying and invalidation: keys are the result cache's ItemKey —
// (twig text, document pointer identity, epoch, effective top-k,
// algorithm, pair id; cache/item_key.h). The facade's epoch/pair_id
// discipline applies unchanged: every re-registration, re-preparation,
// or InvalidateResultCache restamps epochs (or mints pair ids), making
// stale bounds structurally unreachable — a stale entry can never be
// looked up, it only occupies memory until the generational flush
// reclaims it. Memory is bounded the way the plan/embedding caches are:
// past max_entries distinct keys the whole generation is flushed (hot
// items re-cache immediately). Probes take a borrowed, pre-hashed
// ItemKeyRef, so a bound phase hashes each twig once, not once per
// document, and copies it only into newly stored keys.
#ifndef UXM_CACHE_BOUND_CACHE_H_
#define UXM_CACHE_BOUND_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "cache/item_key.h"

namespace uxm {

/// \brief Identity of one (twig, document) bound: the result cache's key
/// (cache/item_key.h) — a bound is valid exactly as long as the cached
/// answer for the same evaluation would be.
using BoundCacheKey = ItemKey;

/// \brief Cumulative bound-cache counters.
struct BoundCacheStats {
  uint64_t hits = 0;        ///< Lookups served from cache.
  uint64_t misses = 0;      ///< Lookups that found nothing.
  uint64_t insertions = 0;  ///< Insert calls (refinements included).
  uint64_t flushes = 0;     ///< Generational evictions at max_entries.
  size_t entries = 0;       ///< Currently cached bounds.
};

/// \brief Thread-safe (twig, document, epoch, k, algorithm, pair) ->
/// answer-upper-bound map.
///
/// Same concurrency protocol as the EmbeddingCache: shared-lock lookups,
/// exclusive-lock inserts. Entries are 8-byte doubles, so the entry cap
/// (not a byte budget) bounds memory.
class BoundCache {
 public:
  /// `max_entries` bounds the number of cached keys (0 = unbounded).
  explicit BoundCache(size_t max_entries = 65536)
      : max_entries_(max_entries) {}

  BoundCache(const BoundCache&) = delete;
  BoundCache& operator=(const BoundCache&) = delete;

  /// The cached bound for `key`, or nullopt.
  std::optional<double> Lookup(const ItemKeyRef& key) const;

  /// Records `bound` for `key`, keeping the MIN with any stored value
  /// (every inserted bound must itself be sound, so the tighter one
  /// wins). kProvenEmptyBound is stored as is; any other negative bound
  /// is clamped to 0 — no answer probability is below it.
  void Insert(const ItemKeyRef& key, double bound);

  /// Drops every entry (counters are kept).
  void Clear();

  BoundCacheStats Stats() const;

 private:
  struct Slot {
    ItemKey key;
    double bound = 0.0;
  };
  /// Full key hash -> slot; a multimap so probes need no owning key (see
  /// ResultCache's index).
  using Index = std::unordered_multimap<size_t, Slot, PrehashedHash>;

  const size_t max_entries_;
  mutable std::shared_mutex mu_;
  Index cache_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace uxm

#endif  // UXM_CACHE_BOUND_CACHE_H_

// The identity of one cacheable (twig, document) evaluation, shared by the
// result cache (cache/result_cache.h) and the bound cache
// (cache/bound_cache.h): a bound is valid exactly as long as the cached
// answer for the same evaluation would be, so both key on the same six
// fields — (twig text, document identity, epoch, effective top-k,
// algorithm, prepared-pair id).
//
// Two forms: ItemKey owns its twig and is what the caches store;
// ItemKeyRef borrows the twig and carries its hash precomputed, so a
// corpus bound phase or claim loop that probes one twig against hundreds
// of documents copies and hashes the twig text once, not once per probe.
// Equality is over all six fields either way (the twig by content).
#ifndef UXM_CACHE_ITEM_KEY_H_
#define UXM_CACHE_ITEM_KEY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace uxm {

/// \brief Owning identity of one (twig, document) evaluation.
///
/// `doc` is pointer identity: callers must not mutate or reuse the
/// storage of a document while its answers may be cached (the facade
/// bumps the epoch on Prepare/AttachDocument — and sweeps the replaced
/// pair's entries / clears respectively — so its own documents are
/// safe; for external per-request documents, call
/// UncertainMatchingSystem::InvalidateResultCache after freeing one).
struct ItemKey {
  std::string twig;
  const void* doc = nullptr;
  uint64_t epoch = 0;
  int top_k = 0;           ///< Effective top-k (0 = all relevant mappings).
  bool block_tree = true;  ///< Algorithm 4 vs Algorithm 3.
  /// PreparedSchemaPair::pair_id the answer was computed under. A
  /// re-prepared pair gets a fresh id, and one document registered under
  /// two pairs yields two distinct keys even at equal epochs.
  uint64_t pair = 0;

  bool operator==(const ItemKey& o) const {
    return doc == o.doc && epoch == o.epoch && top_k == o.top_k &&
           block_tree == o.block_tree && pair == o.pair && twig == o.twig;
  }
};

/// Hash of a twig's text — the part of an item key worth computing once.
inline size_t HashTwig(std::string_view twig) {
  return std::hash<std::string_view>()(twig);
}

/// \brief Borrowed, pre-hashed form of an ItemKey for probes and inserts.
/// The viewed twig must outlive the call it is passed to; caches copy it
/// into an owning ItemKey only when they store a new entry.
struct ItemKeyRef {
  std::string_view twig;
  size_t twig_hash = 0;  ///< HashTwig(twig)
  const void* doc = nullptr;
  uint64_t epoch = 0;
  int top_k = 0;
  bool block_tree = true;
  uint64_t pair = 0;

  ItemKeyRef(std::string_view twig, size_t twig_hash, const void* doc,
             uint64_t epoch, int top_k, bool block_tree, uint64_t pair)
      : twig(twig),
        twig_hash(twig_hash),
        doc(doc),
        epoch(epoch),
        top_k(top_k),
        block_tree(block_tree),
        pair(pair) {}
  /// Views an owning key (hashing its twig). Implicit so owning keys can
  /// be passed wherever a probe is expected.
  ItemKeyRef(const ItemKey& key)  // NOLINT: implicit
      : ItemKeyRef(key.twig, HashTwig(key.twig), key.doc, key.epoch,
                   key.top_k, key.block_tree, key.pair) {}

  /// The full key hash: the twig hash combined with the scalar fields.
  size_t Hash() const;

  bool Matches(const ItemKey& key) const {
    return doc == key.doc && epoch == key.epoch && top_k == key.top_k &&
           block_tree == key.block_tree && pair == key.pair &&
           twig == key.twig;
  }

  ItemKey ToOwned() const {
    return ItemKey{std::string(twig), doc, epoch, top_k, block_tree, pair};
  }
};

/// Identity hasher for maps keyed by an already-computed ItemKeyRef::Hash.
struct PrehashedHash {
  size_t operator()(size_t hash) const { return hash; }
};

}  // namespace uxm

#endif  // UXM_CACHE_ITEM_KEY_H_

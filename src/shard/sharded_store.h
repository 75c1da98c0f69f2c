// The corpus registry. The paper evaluates a PTQ against one
// uncertain-schema document at a time; a production deployment holds a
// *corpus* of named documents and asks which documents (and which answers
// within them) best match a twig. The store maps names to documents
// annotated once against the source schema of THEIR prepared pair, each
// stamped with the epoch under which its cached answers are valid.
// Because every entry carries its own pair, one corpus may span documents
// prepared under different (source, target) schema pairs — a
// heterogeneous corpus — and a corpus query fans one twig across all of
// them.
//
// Concurrency: the registry is published as an immutable snapshot behind
// a shared_ptr — every mutation builds the next name-sorted vector and
// swaps it in, so corpus queries grab one pointer and iterate without
// locks, and corpus mutation can race in-flight corpus queries safely
// (the same discipline the facade uses for its PreparedState). A removed
// document's annotation stays alive until the last in-flight query that
// snapshotted it finishes.
//
// Epoch discipline: every entry carries the facade epoch assigned when it
// was (re)installed. Result-cache keys include that per-document epoch,
// so re-adding a document or re-preparing the system makes every answer
// cached under the old epoch structurally unreachable — no eager cache
// sweep is ever needed for corpus membership changes.
//
// Sharding: every document belongs to one of S shards by a stable hash of
// its NAME (never of registration order, corpus size, or pointer
// identity), so the same corpus always partitions the same way — across
// runs, across processes, and across snapshot save/load. Queries do not
// run per shard: S only partitions the store and labels the bounded
// runs' shard_reports. That stability is what makes
// per-shard snapshot export a replica-bootstrap path: a replica that
// loads shard s's snapshot holds exactly the documents any coordinator
// would route to shard s.
//
// The store keeps ONE name-sorted vector. A mutation binary-searches and
// copies it once (no sort), then derives the per-shard views from it and
// publishes all of them as one ShardedCorpusSnapshot. A view entry is a
// name and shared pointers, never a copy of a document or annotation; at
// S = 1 the one shard view IS the merged view, so a write copies one
// vector. A single Add or Remove rebuilds only its document's shard view
// and shares the other S - 1 with the previous snapshot.
#ifndef UXM_SHARD_SHARDED_STORE_H_
#define UXM_SHARD_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "xml/document.h"
#include "xml/schema.h"

namespace uxm {

/// \brief One registered corpus member: a named document annotated against
/// its pair's source schema, plus the epoch its cached answers live
/// under.
struct CorpusDocument {
  std::string name;
  const Document* doc = nullptr;  ///< must outlive its registration
  std::shared_ptr<const AnnotatedDocument> annotated;
  uint64_t epoch = 0;  ///< result-cache epoch for this registration
  /// The prepared pair this document is queried under; its source schema
  /// is the one `annotated` is bound to.
  std::shared_ptr<const PreparedSchemaPair> pair;
};

/// \brief An immutable view of the corpus at one instant, sorted by name.
using CorpusSnapshot = std::vector<CorpusDocument>;

/// Default shard count: 1, on every host. A shard layout is a property of
/// the serving state, not of the machine: with a host-derived default
/// the same corpus would partition (and account) differently on
/// different hosts. Sharding is opt-in through an explicit count.
int DefaultShardCount();

/// Stable shard assignment: FNV-1a-64 of the document name modulo
/// `num_shards` (clamped to >= 1). Pure function of the name; exposed so
/// tests can pin placements and tools/uxm_snapshot can summarize a
/// snapshot's shard layout without loading it into a store.
size_t ShardForDocument(const std::string& name, size_t num_shards);

/// \brief One consistent instant of a sharded corpus.
///
/// Invariant: `shards` partition `*all` — disjoint, union-equal, every
/// document in shard ShardForDocument(name, shards.size()) — and each
/// view is name-sorted. At S = 1, `shards[0]` is `all` itself. Pinned by
/// tests/shard_test.cc.
struct ShardedCorpusSnapshot {
  std::shared_ptr<const CorpusSnapshot> all;
  std::vector<std::shared_ptr<const CorpusSnapshot>> shards;
};

/// \brief Thread-safe registry of named annotated documents, partitioned
/// into S shards by name hash.
///
/// Internally synchronized, but the facade additionally serializes all
/// mutations with its state lock so epoch assignment and schema checks
/// stay atomic with respect to Prepare/AttachDocument.
class ShardedDocumentStore {
 public:
  /// `num_shards` <= 0 selects DefaultShardCount(). The count is fixed
  /// for the store's lifetime (re-sharding a live corpus is a
  /// rebuild-and-reload operation, not a mutation).
  explicit ShardedDocumentStore(int num_shards = 0);

  ShardedDocumentStore(const ShardedDocumentStore&) = delete;
  ShardedDocumentStore& operator=(const ShardedDocumentStore&) = delete;

  size_t num_shards() const { return num_shards_; }

  /// The shard `name` is (or would be) stored in.
  size_t ShardOf(const std::string& name) const {
    return ShardForDocument(name, num_shards_);
  }

  /// Registers `entry` under its name. AlreadyExists if the name is
  /// taken (names are globally unique: one name always maps to one
  /// shard); InvalidArgument on an empty name, missing document or
  /// annotation, or missing pair.
  Status Add(CorpusDocument entry);

  /// Registers every entry of `entries` with one publish, all or
  /// nothing: the first rejected entry (per Add — a name already
  /// registered, or one that appears twice in `entries`) fails the call
  /// and the published corpus is left unchanged.
  Status AddAll(std::vector<CorpusDocument> entries);

  /// Unregisters `name`. NotFound if absent. In-flight queries holding an
  /// older snapshot finish against it; queries snapshotting after this
  /// returns can never see the document.
  Status Remove(const std::string& name);

  /// Reconciles the corpus with a re-prepared pair: entries whose pair
  /// relates the same (source, target) schemas are re-bound to the new
  /// incarnation and re-stamped with `epoch` (their annotations stay
  /// valid — they depend only on the source schema, which is identical by
  /// key). Entries of other pairs are untouched. Returns the number of
  /// entries re-bound.
  int RebindPair(const std::shared_ptr<const PreparedSchemaPair>& pair,
                 uint64_t epoch);

  /// Drops every entry registered under the pair for (source, target) —
  /// the corpus half of unregistering a schema pair. In-flight queries
  /// holding an older snapshot finish against it. Returns the number of
  /// entries dropped.
  int RemovePairDocuments(const Schema* source, const Schema* target);

  /// Re-stamps every entry with `epoch` (full corpus invalidation: any
  /// in-flight insert keyed under a pre-bump epoch becomes unreachable).
  void Restamp(uint64_t epoch);

  /// Drops every entry.
  void Clear();

  /// The current corpus view. Never null; `all` and all S `shards`
  /// entries are non-null (empty vectors when nothing is registered).
  std::shared_ptr<const ShardedCorpusSnapshot> Snapshot() const;

  /// Registered document count / names (sorted ascending).
  size_t size() const;
  std::vector<std::string> Names() const;

 private:
  /// Publishes `all` (name-sorted) and the shard views derived from it
  /// as the current snapshot. When `changed` names the one document
  /// added or removed since the live snapshot, only that document's
  /// shard view is rebuilt and the others are shared; otherwise every
  /// view is rebuilt. Caller holds mu_.
  void Publish(CorpusSnapshot all, const std::string* changed = nullptr);

  const size_t num_shards_;
  mutable std::mutex mu_;
  std::shared_ptr<const ShardedCorpusSnapshot> snapshot_;
};

}  // namespace uxm

#endif  // UXM_SHARD_SHARDED_STORE_H_

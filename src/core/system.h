// High-level facade over the layered plan/execute engine:
//
//   preparation  — SchemaPairRegistry of immutable PreparedSchemaPairs
//                  (matching + top-h mappings + block tree + plan
//                  compiler + work-unit order), one per (source, target)
//                  schema pair; Prepare registers a pair and makes it the
//                  default (src/plan/prepared_pair.h)
//   planning     — QueryPlans compiled once per (twig, pair) and cached
//                  in the pair's QueryCompiler (src/plan/query_plan.h)
//   execution    — ONE ExecutionDriver protocol behind every query path:
//                  result-cache probe → plan → early-termination top-k
//                  mapping selection → evaluate → insert
//                  (src/plan/driver.h)
//
// UncertainMatchingSystem wires the three layers together so callers can
// go from two schemas + a document to probabilistic query answers in a
// few lines (see examples/quickstart.cpp).
//
// Hot-traffic serving: every query path goes through the pair's plan
// cache (parse + schema embedding hoisted out of the request path,
// computed once per distinct twig; per-mapping relevance memoized lazily
// so top-k traffic never pays the full filter scan) and an optional
// sharded LRU ResultCache of whole PTQ answers keyed on (twig, document,
// epoch, top-k, algorithm, pair).
//
// Corpus serving: beyond the single AttachDocument slot, the facade holds
// a corpus store of named documents (shard/sharded_store.h) — each
// annotated once at AddDocument time against ITS pair's source schema and
// stamped with its own epoch —
// and fans twigs across all (or a named subset) of them with
// QueryCorpus/RunCorpusBatch, k-way-merging the per-document answers into
// a global top-k ranked by answer probability with per-document
// provenance (see src/corpus/). A corpus may span several prepared pairs
// (heterogeneous corpus): register extra pairs with Prepare and bind
// documents to them with the four-argument AddDocument overload;
// RemovePair unregisters one again. Top-k corpus queries run through the
// bound-driven scheduler (shard/sharded_corpus_executor.h): items are
// dispatched best-bound-first and skipped or aborted — exactly — once
// the k-th answer provably beats them, and twig embeddings are shared
// across pairs with a common target schema via the registry-wide
// EmbeddingCache.
//
// Concurrency: pairs, the attached document, and the corpus registry are
// immutable objects published by shared_ptr swap, so Query/QueryTopK/
// RunBatch/QueryCorpus may run concurrently with Prepare/AttachDocument/
// AddDocument/RemoveDocument: in-flight calls keep the snapshot they
// started with alive and finish against it, while an epoch counter bumped
// before every swap (plus the fresh pair_id of every re-preparation)
// guarantees their late cache inserts can never be served to callers that
// arrived after the swap. All accessors hand out shared_ptr snapshots
// that stay valid across later Prepare calls — no by-reference views of
// mutable state are exposed.
#ifndef UXM_CORE_SYSTEM_H_
#define UXM_CORE_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocktree/block_tree.h"
#include "cache/query_compiler.h"
#include "cache/result_cache.h"
#include "common/status.h"
#include "corpus/corpus_executor.h"
#include "exec/batch_executor.h"
#include "shard/sharded_store.h"
#include "mapping/top_h.h"
#include "matching/matcher.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/ptq.h"

namespace uxm {

/// \brief Caching knobs (see src/cache/).
struct CacheOptions {
  /// Master switch for the PTQ result cache. The plan cache is always on
  /// — it holds no answers and its memory is bounded by its own
  /// generational entry cap (see cache/query_compiler.h).
  bool enable_result_cache = true;
  /// Byte budget for cached answers, split evenly across the result
  /// cache's mutex stripes; least recently used entries are evicted
  /// beyond it.
  size_t max_result_bytes = size_t{64} << 20;
  /// Master switch for the per-(twig, document) answer-bound cache the
  /// bounded corpus scheduler consults (cache/bound_cache.h). Off, every
  /// bounded run recomputes its probe bounds and forgets its realized
  /// bounds. Invalidation rides the same epoch/pair-id discipline as the
  /// result cache.
  bool enable_bound_cache = true;
  /// Cap on registered schema pairs for multi-tenant serving; 0 = no
  /// cap. When an install (Prepare/PrepareFromMatching/LoadSnapshot)
  /// pushes the registry past the cap, the least-recently-QUERIED pairs
  /// are evicted through the RemovePair path until the cap holds — their
  /// corpus documents are dropped and their cached answers swept, so
  /// size this to the working set, not the tenant count. The current
  /// default pair and the pair just installed are never evicted (the
  /// registry may exceed the cap by their presence). "Queried" means:
  /// chosen as a call's default pair, carried by a corpus batch's
  /// documents, or targeted by AddDocument. Eviction count:
  /// pair_evictions().
  size_t max_pairs = 0;
};

/// \brief End-to-end configuration.
struct SystemOptions {
  MatcherOptions matcher;
  TopHOptions top_h;
  BlockTreeOptions block_tree;
  PtqOptions ptq;
  CacheOptions cache;
  /// Corpus shard count (src/shard/): documents partition into this many
  /// shards by stable name hash, which routes per-shard snapshots
  /// (SaveShardSnapshot) and labels bounded runs' shard_reports. Every
  /// corpus query runs one claim loop whatever the value, so parallelism
  /// comes from the pool's workers. <= 0 selects DefaultShardCount() = 1
  /// on every host. Answers are bit-identical for every value.
  int corpus_shards = 0;
};

/// \brief What one SaveSnapshot/LoadSnapshot call processed.
struct SnapshotStats {
  uint64_t file_bytes = 0;
  size_t sections = 0;
  size_t pairs = 0;
  size_t documents = 0;
  double seconds = 0.0;  ///< Wall time of the save/load.
};

/// \brief One query of a batch: a twig, optionally against its own
/// document. `doc == nullptr` targets the document bound with
/// AttachDocument; a non-null `doc` must conform to the default pair's
/// source schema and is annotated once per RunBatch call (shared across
/// its items).
struct BatchQueryRequest {
  const Document* doc = nullptr;
  std::string twig;
  int top_k = 0;  ///< per-request top-k PTQ; 0 = SystemOptions::ptq.
};

/// \brief Knobs for one RunBatch call.
struct BatchRunOptions {
  int num_threads = 0;       ///< 0 = all hardware threads.
  bool use_block_tree = true;  ///< Algorithm 4 (true) vs Algorithm 3.
};

/// \brief Batch answers, in request order, plus execution statistics
/// (including compiled-plan and result-cache hit counts).
struct BatchQueryResponse {
  std::vector<Result<PtqResult>> answers;
  BatchRunReport report;
};

/// \brief One-stop pipeline object.
///
/// Usage:
///   UncertainMatchingSystem sys(options);
///   UXM_RETURN_NOT_OK(sys.Prepare(&source, &target));
///   UXM_RETURN_NOT_OK(sys.AttachDocument(&doc));
///   auto result = sys.Query("Order/DeliverTo/Contact/EMail");
class UncertainMatchingSystem {
 public:
  explicit UncertainMatchingSystem(SystemOptions options = {});

  /// Matches the schemas, generates the top-h mappings, builds the block
  /// tree and seeds the plan compiler, then REGISTERS the result as the
  /// pair for (source, target) — replacing any earlier preparation of the
  /// same two schemas — and makes it the default pair every single-
  /// document call targets. Pairs for other schemas stay registered,
  /// their corpus documents stay queryable, and their cached answers
  /// stay hot — only the replaced pair's cache entries are swept (the
  /// epoch bump makes this pair's stale answers unreachable regardless).
  /// Schemas must be finalized and outlive their registration.
  Status Prepare(const Schema* source, const Schema* target);

  /// Uses an externally produced matching instead of running the matcher
  /// (e.g. scores imported from a real COMA++ run).
  Status PrepareFromMatching(SchemaMatching matching);

  /// Unregisters the prepared pair for (source, target): its corpus
  /// documents are dropped, its cached answers swept, and — when it was
  /// the default pair — single-document traffic reverts to unprepared
  /// (Query/RunBatch error until a re-Prepare elects a new default).
  /// Other pairs stay registered, and their corpus documents remain
  /// fully queryable through QueryCorpus/RunCorpusBatch, which need no
  /// default pair. In-flight queries that captured the pair finish
  /// against it. NotFound if no such pair is registered. The registry
  /// no longer grows monotonically.
  Status RemovePair(const Schema* source, const Schema* target);

  /// Binds the document the single-document queries run against. The
  /// document must conform to the default pair's source schema and
  /// outlive this object. Invalidates every cached answer.
  Status AttachDocument(const Document* doc);

  /// Evaluates a PTQ (block-tree accelerated, cached). Requires Prepare +
  /// AttachDocument.
  Result<PtqResult> Query(const std::string& twig) const;

  /// Evaluates a top-k PTQ (§IV-C) with early-termination mapping
  /// selection: work units are consumed most-probable-first and
  /// enumeration stops as soon as the residual probability mass provably
  /// cannot alter the top-k answer set. Exact — differential-tested equal
  /// to the unpruned §IV-C restriction.
  Result<PtqResult> QueryTopK(const std::string& twig, int k) const;

  /// Evaluates with Algorithm 3 instead (for comparison/testing). Cached
  /// under its own key, never mixed with block-tree answers.
  Result<PtqResult> QueryBasic(const std::string& twig) const;

  /// Evaluates a whole batch of PTQs in parallel on a fixed-size thread
  /// pool (exec/batch_executor.h). Every item is evaluated through the
  /// shared ExecutionDriver against the default pair; answers come back
  /// in request order and are identical for any thread count or cache
  /// state. Requires Prepare; requires AttachDocument only if some
  /// request's doc is null. Per-request failures (e.g. twig parse
  /// errors) error only their own answer slot.
  Result<BatchQueryResponse> RunBatch(
      const std::vector<BatchQueryRequest>& requests,
      const BatchRunOptions& run = {}) const;

  /// Registers `doc` in the corpus under `name`, bound to the REGISTERED
  /// pair whose source schema the document conforms to (pair inference).
  /// Preference order: full conformance (every node binds) beats partial
  /// (root matches, some nodes unbound), and within a tier the default
  /// pair wins — so the historical "bind to the default pair" behavior
  /// is unchanged whenever the document conforms to it. When several
  /// non-default pairs tie, the call fails with InvalidArgument naming
  /// the candidate pairs (use the four-argument overload to pick one);
  /// when no registered pair's source schema matches, NotFound. The
  /// document must outlive its registration (it is annotated once,
  /// here). Every registration gets a fresh epoch, so answers cached for
  /// a prior registration of the same document are never served.
  /// AlreadyExists if the name is taken; requires Prepare.
  Status AddDocument(const std::string& name, const Document* doc);

  /// Heterogeneous-corpus registration: binds `doc` to the REGISTERED
  /// pair for (source, target) instead of the default one. NotFound if no
  /// such pair was Prepared. Corpus queries fan across all documents
  /// regardless of pair, each evaluated under its own pair.
  Status AddDocument(const std::string& name, const Document* doc,
                     const Schema* source, const Schema* target);

  /// Unregisters `name`. Corpus queries snapshotting after this returns
  /// can never see the document; in-flight queries that already hold it
  /// finish against their snapshot (the annotation stays alive until
  /// they do). NotFound if absent.
  Status RemoveDocument(const std::string& name);

  /// Evaluates one twig against the whole corpus (or the
  /// options.documents subset) and returns the global top-k answers
  /// ranked by probability, each tagged with its document (see
  /// corpus/corpus_executor.h for the merge semantics). Documents
  /// registered under different pairs are each evaluated under their own
  /// pair. Requires Prepare; an empty corpus yields an empty answer list.
  /// Under a latency SLO set options.deadline / max_evaluations: the run
  /// then degrades gracefully, returning the top-k found so far plus a
  /// certified residual error bound instead of blowing the budget (see
  /// CorpusQueryOptions and README "Deadlines and anytime answers").
  Result<CorpusQueryResult> QueryCorpus(
      const std::string& twig, const CorpusQueryOptions& options = {}) const;

  /// Evaluates a batch of twigs against the corpus in parallel on the
  /// same thread pool RunBatch uses; per-twig failures error only their
  /// own slot. Every (twig, document) evaluation goes through the shared
  /// caches, keyed under the document's registration epoch and pair.
  /// Deadline/budget options apply to the whole batch as ONE budget (all
  /// twigs, all shards), and response.exact reports whether any slot was
  /// budget-truncated.
  Result<CorpusBatchResponse> RunCorpusBatch(
      const std::vector<std::string>& twigs,
      const CorpusQueryOptions& options = {},
      const BatchRunOptions& run = {}) const;

  /// Number of registered corpus documents / their names (sorted).
  size_t corpus_size() const;
  std::vector<std::string> CorpusDocumentNames() const;

  /// Corpus shard layout (see SystemOptions::corpus_shards): the shard
  /// count this system partitions with, and the shard a given document
  /// name is (or would be) routed to — deterministic, exposed for tests
  /// and for clients that co-locate requests with shards.
  size_t corpus_shard_count() const;
  size_t CorpusShardOf(const std::string& name) const;

  /// Serializes every registered pair and corpus document (plus which
  /// pair is the default) into one mmap-able snapshot file at `path`
  /// (src/snapshot/), written atomically via a temp file + rename. A
  /// later LoadSnapshot — typically in a fresh process — restores the
  /// same serving state without re-running matching, top-h generation,
  /// block-tree construction, or document annotation.
  Status SaveSnapshot(const std::string& path,
                      SnapshotStats* stats = nullptr) const;

  /// Serializes every registered pair but only shard `shard`'s corpus
  /// documents — the replica-bootstrap path of sharded serving: a
  /// replica that LoadSnapshot's shard s's file holds exactly the
  /// documents a coordinator routes to shard s (shard assignment is a
  /// pure function of the document name, so it survives the round
  /// trip). The file is an ordinary snapshot: any system can load it,
  /// sharded or not. InvalidArgument if `shard` >= corpus_shard_count().
  Status SaveShardSnapshot(size_t shard, const std::string& path,
                           SnapshotStats* stats = nullptr) const;

  /// Restores the pairs and corpus documents of a snapshot INTO this
  /// system: the file is mapped read-only and every loaded pair's flat
  /// evaluation arrays point straight into the mapping (kept alive by
  /// the pairs themselves). Loaded state is additive — existing pairs
  /// and documents stay registered — and gets fresh epochs and pair ids,
  /// so answers cached by the process that wrote the snapshot can never
  /// be served. When the snapshot recorded a default pair it becomes
  /// this system's default. AlreadyExists (before any state changes) if
  /// a loaded document name is already registered; DataLoss naming the
  /// damaged section on a corrupt file.
  Status LoadSnapshot(const std::string& path, SnapshotStats* stats = nullptr);

  /// Drops every cached PTQ answer. Needed only when an external
  /// per-request document's storage is mutated or freed (answers are
  /// keyed on document pointer identity); Prepare/AttachDocument
  /// invalidate automatically. Corpus registrations are re-stamped with
  /// a fresh epoch so in-flight corpus inserts cannot resurface.
  void InvalidateResultCache();

  /// Cumulative result-cache counters (hits/misses/evictions/bytes).
  ResultCacheStats result_cache_stats() const;

  /// Cumulative plan-compiler counters of the default pair.
  QueryCompilerStats compiler_stats() const;

  /// Cumulative counters of the registry-wide cross-pair embedding
  /// cache (twigs embedded once per target schema, shared by every pair
  /// over it).
  EmbeddingCacheStats embedding_cache_stats() const;

  /// Cumulative counters of the registry-wide per-(twig, document)
  /// answer-bound cache the bounded corpus scheduler consults.
  BoundCacheStats bound_cache_stats() const;

  /// Snapshot of the default prepared pair (matching, mappings, block
  /// tree, compiler), or null before the first Prepare. The returned
  /// object is immutable and stays valid across any later Prepare — this
  /// replaces the old by-reference matching()/mappings()/block_tree()
  /// accessors, whose references a concurrent Prepare invalidated.
  std::shared_ptr<const PreparedSchemaPair> prepared_pair() const;

  /// Snapshot of the registered pair for (source, target), or null.
  std::shared_ptr<const PreparedSchemaPair> prepared_pair(
      const Schema* source, const Schema* target) const;

  /// Number of registered schema pairs.
  size_t pair_count() const;

  /// Pairs evicted so far by the CacheOptions::max_pairs LRU cap.
  uint64_t pair_evictions() const {
    return pair_evictions_.load(std::memory_order_relaxed);
  }

  bool prepared() const { return prepared_.load(std::memory_order_acquire); }

 private:
  /// A consistent view for one call: default pair, document, corpus, and
  /// epoch captured under one lock acquisition (plus the executor for
  /// batch calls). Corpus mutations and pair installs are serialized by
  /// the same lock, so every captured corpus entry is annotated against
  /// its captured pair's source schema.
  struct Session {
    std::shared_ptr<const PreparedSchemaPair> pair;
    std::shared_ptr<const AnnotatedDocument> annotated;
    std::shared_ptr<const ShardedCorpusSnapshot> corpus;
    uint64_t epoch = 0;
    std::shared_ptr<BatchQueryExecutor> executor;
    /// Any pair registered at capture time (corpus queries only need
    /// this — their items carry their own pair, not the default).
    bool has_pairs = false;
  };

  /// Captures the current session; with a non-null `run` it also returns
  /// the cached batch executor, (re)building it when the thread count or
  /// algorithm changed. The pool is reused across RunBatch calls — and
  /// across Prepare calls, since the executor holds no pair state — so
  /// the per-call cost is queries, not thread creation; shared ownership
  /// keeps a swapped-out executor alive for any RunBatch still using it.
  Session Snapshot(const BatchRunOptions* run) const;

  /// Registers a freshly built pair (under the lock), makes it the
  /// default, rebinds its corpus documents, and invalidates.
  void InstallPair(std::shared_ptr<const PreparedSchemaPair> pair);

  /// Enforces CacheOptions::max_pairs under state_mu_: evicts
  /// least-recently-queried pairs (never the default, never `keep`)
  /// through the RemovePair internals and appends them to `evicted` so
  /// the caller can sweep their cached answers outside the lock.
  void EvictPairsOverCap(
      const PreparedSchemaPair* keep,
      std::vector<std::shared_ptr<const PreparedSchemaPair>>* evicted);

  /// Shared body of SaveSnapshot (shard < 0: the merged corpus) and
  /// SaveShardSnapshot (shard s's slice only; always every pair).
  Status SaveSnapshotView(int shard, const std::string& path,
                          SnapshotStats* stats) const;

  /// Shared single-document path behind Query/QueryTopK/QueryBasic —
  /// a thin adapter onto ExecutionDriver::Execute.
  Result<PtqResult> CachedQuery(const std::string& twig, int top_k,
                                bool use_block_tree) const;

  /// Hands the heap pages the system leaves free back to the OS (glibc
  /// malloc_trim; nothing elsewhere). Declared first, so it is destroyed
  /// last, after every other member has freed its memory. Without it a
  /// process that tears a serving state down and builds another keeps
  /// the torn-down state's freed pages resident; with it the next build
  /// re-faults them instead of reusing them.
  struct FreedPagesRelease {
    FreedPagesRelease() = default;
    FreedPagesRelease(const FreedPagesRelease&) = delete;
    FreedPagesRelease& operator=(const FreedPagesRelease&) = delete;
    ~FreedPagesRelease();
  };
  FreedPagesRelease release_freed_pages_;

  SystemOptions options_;
  std::shared_ptr<ResultCache> result_cache_;
  std::atomic<bool> prepared_{false};

  /// Every prepared pair, keyed by (source, target) identity. Internally
  /// synchronized, but installs additionally happen under state_mu_ so
  /// epoch stamping and corpus rebinding stay atomic.
  SchemaPairRegistry registry_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const PreparedSchemaPair> default_pair_;  // null until
                                                            // Prepare
  std::shared_ptr<const AnnotatedDocument> annotated_;  // null until Attach
  /// Named corpus documents, partitioned into
  /// SystemOptions::corpus_shards shards by stable name hash
  /// (src/shard/sharded_store.h). Internally synchronized, but every
  /// mutation additionally happens under state_mu_ so registration
  /// epochs and schema checks stay atomic with Prepare/AttachDocument.
  ShardedDocumentStore store_;
  /// One monotone counter hands out every epoch value, so no two cache
  /// stamps ever collide: epoch_ advances on every swap AND every corpus
  /// registration. The single-document session epoch (doc_epoch_, used
  /// for Query/RunBatch keys) only follows it on Prepare/AttachDocument/
  /// InvalidateResultCache — growing the corpus must not flush the hot
  /// attached-document cache.
  uint64_t epoch_ = 0;
  uint64_t doc_epoch_ = 0;
  /// Cached executor, keyed only on (thread count, algorithm): items
  /// carry their pair, so the pool survives re-preparation.
  mutable std::shared_ptr<BatchQueryExecutor> executor_;
  mutable bool executor_use_block_tree_ = true;
  /// Pairs evicted by the max_pairs LRU cap (monotone).
  std::atomic<uint64_t> pair_evictions_{0};
};

}  // namespace uxm

#endif  // UXM_CORE_SYSTEM_H_

// The one corpus entry point: scatter-gather execution over a sharded
// corpus — one bounded TA scheduler per non-empty shard, racing against
// SHARED per-twig thresholds, k-way-merged by the coordinator. An
// unsharded corpus is simply S = 1: its lone scheduler runs inline on the
// caller thread, with no thread spawned.
//
// The protocol, in terms of the shared engine (corpus/bounded_scheduler.h):
//
//   scatter — the coordinator resolves the document selection against
//     the merged view, partitions it into the S per-shard slices (by the
//     same stable name hash the store routes with), and allocates ONE
//     TwigRace per twig. The caller thread runs the first non-empty
//     slice, and every other non-empty slice gets its own driver thread.
//     Each runs the full bound phase + wave loop over its slice — so the
//     per-document bound probes, the dominant fixed cost on a corpus the
//     thresholds prune well, parallelize across shards instead of
//     serializing in one scheduler.
//
//   global threshold — the races are shared: an answer found by any
//     shard raises its twig's k-th-best threshold for every shard, so a
//     shard whose best remaining bound has fallen below the global k-th
//     prunes its whole remainder without dispatching it ("returns
//     immediately"), and in-flight items of other shards abort at the
//     driver checks or inside the kernel (the PR 8 KernelCancelContext
//     plumbing, fed through BatchQueryItem::cancel_threshold).
//
//   gather — once every driver has joined, the coordinator k-way-merges
//     the races' per-document ranked lists (shared with the result-cache
//     entries they came from, so nothing is copied until the <= k
//     winners are materialized) with the AnswerBefore tie-breaks.
//
// Exactness: bit-identical for every S — pruning only ever drops items k
// in-hand answers provably beat (the threshold is a monotone max that
// starts below every bound), merging is schedule-independent by
// AnswerBefore's total order, and debug builds re-evaluate every skipped
// document and certify the merge (CertifyBoundedTopK). Pinned by the
// tests/sharded_differential_test.cc sweep.
//
// Threading: all shards dispatch their waves into the ONE shared
// BatchQueryExecutor pool (see README "Sharded corpus serving" for the
// shared-pool-vs-per-shard-pools justification); driver threads are
// dedicated ScopedThreads, never pool tasks (exec/thread_pool.h explains
// the deadlock that forbids it). Reports: at S >= 2 each shard's
// BoundedScheduleResult is surfaced verbatim as
// CorpusBatchResponse::shard_reports[s], and at every S the global
// CorpusRunReport is their field-by-field sum, so the per-scheduler
// invariant items_total == evaluated + pruned + aborted + failed holds
// per shard AND in aggregate.
#ifndef UXM_SHARD_SHARDED_CORPUS_EXECUTOR_H_
#define UXM_SHARD_SHARDED_CORPUS_EXECUTOR_H_

#include <string>
#include <vector>

#include "cache/bound_cache.h"
#include "common/status.h"
#include "corpus/corpus_executor.h"
#include "exec/batch_executor.h"
#include "shard/sharded_store.h"

namespace uxm {

/// \brief Fans twigs across a (sharded) corpus on a BatchQueryExecutor.
///
/// The executor is borrowed, not owned: the facade hands in the same
/// cached BatchQueryExecutor its RunBatch path uses, so corpus and
/// single-document traffic share one thread pool and one set of caches.
class ShardedCorpusExecutor {
 public:
  /// `bound_cache` (optional, borrowed — normally the registry's, see
  /// SchemaPairRegistry::bound_cache) supplies and receives the
  /// per-(twig, document) bounds of the bounded scheduler; null disables
  /// document-sensitive bound caching (probe bounds are then computed
  /// per run and realized bounds are not remembered).
  explicit ShardedCorpusExecutor(const BatchQueryExecutor* executor,
                                 BoundCache* bound_cache = nullptr)
      : executor_(executor), bound_cache_(bound_cache) {}

  /// Evaluates every twig against the corpus (or the options.documents
  /// subset: unknown names fail the call with NotFound, duplicates
  /// collapse) — through the bound-driven scheduler when options.bounded
  /// and options.top_k > 0, exhaustively otherwise — and merges per
  /// twig. Per-twig failures (e.g. parse errors) error only their own
  /// answer slot. Compile failures are detected before any dispatch and
  /// fail the twig either way; EVALUATION failures are reported only
  /// for items that actually evaluated — a document the bounded
  /// scheduler pruned or aborted never ran, so a failure it would have
  /// produced under the exhaustive path is legitimately never observed
  /// (the answer-equality guarantee is unaffected: a skipped item
  /// provably contributes no top-k answer). When `cache` is non-null,
  /// each item is cached under its document's epoch.
  Result<CorpusBatchResponse> Run(const ShardedCorpusSnapshot& corpus,
                                  const std::vector<std::string>& twigs,
                                  const CorpusQueryOptions& options,
                                  const BatchCacheContext* cache) const;

 private:
  const BatchQueryExecutor* executor_;
  BoundCache* bound_cache_;
};

}  // namespace uxm

#endif  // UXM_SHARD_SHARDED_CORPUS_EXECUTOR_H_

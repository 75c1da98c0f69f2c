// The one corpus entry point. Run resolves the document selection against
// the corpus snapshot's merged, name-sorted view and takes one of two
// paths:
//
//   bounded — options.bounded with top_k > 0: the Threshold-Algorithm
//     scheduler (corpus/bounded_scheduler.h) runs ONE claim loop over
//     every (twig, document) item of the batch, on the calling thread
//     plus the pool helpers its first evaluation recruits. The same loop
//     serves every shard count: S (the snapshot's shard count) only
//     labels items for CorpusBatchResponse::shard_reports, one entry per
//     shard at S >= 2, read off the run's per-item disposition record —
//     so items_total == evaluated + pruned + aborted + failed holds per
//     shard AND in aggregate, and the entries sum to the aggregate.
//
//   exhaustive — otherwise: one claim run over all items
//     (BatchQueryExecutor::RunRanked), merged per twig. It ignores
//     budgets by design; it is the oracle the differential tests compare
//     bounded runs against.
//
// Exactness: bit-identical for every S and every worker count — pruning
// only ever drops items k in-hand answers provably beat, and merging is
// schedule-independent by AnswerBefore's total order. Debug builds
// re-evaluate every skipped document and certify the merge. Pinned by
// tests/sharded_differential_test.cc and tests/schedule_fuzz_test.cc.
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

// Scatter-gather corpus execution over a sharded corpus (ROADMAP item
// 2): one bounded TA scheduler per shard, racing concurrently against
// SHARED per-twig thresholds, k-way-merged by the coordinator.
//
// The protocol, in terms of the shared engine (corpus/bounded_scheduler.h):
//
//   scatter — the coordinator resolves the document selection against
//     the merged view, partitions it into the S per-shard slices (by the
//     same stable name hash the store routes with), allocates ONE
//     TwigRace per twig, and spawns one driver thread per non-empty
//     shard. Each driver runs the full bound phase + wave loop over its
//     slice — so the per-document bound probes, the dominant fixed cost
//     on a corpus the thresholds prune well, parallelize across shards
//     instead of serializing in one scheduler.
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
//     winners are materialized) with the same AnswerBefore tie-breaks as
//     the single scheduler — the very merge the single scheduler runs.
//
// Exactness: bit-identical to the single-scheduler path — pruning only
// ever drops items k in-hand answers provably beat (the threshold is a
// monotone max that starts below every bound), merging is
// schedule-independent by AnswerBefore's total order, and debug builds
// re-evaluate every skipped document and certify the merge
// (CertifyBoundedTopK, same discipline as the unsharded path). Pinned by
// the tests/sharded_differential_test.cc sweep.
//
// Threading: all shards dispatch their waves into the ONE shared
// BatchQueryExecutor pool (see README "Sharded corpus serving" for the
// shared-pool-vs-per-shard-pools justification); driver threads are
// dedicated ScopedThreads, never pool tasks (exec/thread_pool.h explains
// the deadlock that forbids it). Reports: each shard's
// BoundedScheduleResult is surfaced verbatim as
// CorpusBatchResponse::shard_reports[s] and the global CorpusRunReport
// is their field-by-field sum, so the per-scheduler invariant
// items_total == evaluated + pruned + aborted + failed holds per shard
// AND in aggregate.
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

/// \brief Coordinator running one bounded scheduler per corpus shard.
///
/// Borrows the executor and bound cache exactly like CorpusExecutor (the
/// facade hands in the same shared pool and registry-wide BoundCache).
class ShardedCorpusExecutor {
 public:
  explicit ShardedCorpusExecutor(const BatchQueryExecutor* executor,
                                 BoundCache* bound_cache = nullptr)
      : executor_(executor), bound_cache_(bound_cache) {}

  /// Evaluates the twig batch over the sharded corpus. Delegates to the
  /// single-scheduler CorpusExecutor — which IS the S=1 arm of the
  /// differential sweep — whenever scatter-gather cannot win: one shard,
  /// an unbounded or top_k <= 0 run (nothing to prune against), or a
  /// selection of fewer than two documents. Semantics (subset
  /// resolution, failure attribution, caching, report invariant) match
  /// CorpusExecutor::Run; answers are bit-identical to it by
  /// construction.
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

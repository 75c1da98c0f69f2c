// The bound-driven (Threshold-Algorithm) corpus scheduler behind
// ShardedCorpusExecutor::Run (shard/sharded_corpus_executor.cc), its one
// caller. One run serves every twig of a batch at every shard count S; S
// only labels items for CorpusBatchResponse::shard_reports.
//
//   bound phase — on the calling thread, every twig is compiled once per
//     distinct pair, and every (twig, document) item gets an answer upper
//     bound: min(pair bound, cached or probed document bound).
//
//   claim loop — the pool of items is sorted best-bound-first once, and
//     the caller claims items off one atomic cursor. Per claim, in order:
//     an item of a failed twig is charged failed; an item whose bound +
//     kAnswerBoundSlack falls below its twig's threshold is pruned; an
//     item claimed after the run's budget expired is deadline-skipped; a
//     result-cache hit is folded inline (a refcount on the cached ranked
//     list — no copy, no evaluation credit). Anything left is evaluated
//     through ExecutionDriver::ExecuteRanked, folded under its race's lock
//     and classified on the spot. The first item that needs evaluation
//     recruits the pool's W - 1 helpers, once per run, and they run the
//     same loop (BatchQueryExecutor::RunClaimLoop); a run whose items are
//     all pruned or cached wakes no thread, and at W = 1 the run is
//     caller-only and deterministic.
//
//   report — each claim writes its item's disposition into one per-item
//     record, and the CorpusRunReport, the per-twig counts and the
//     per-shard reports are all read off it after the loop.
//
// One TwigRace per twig holds the twig's top-k tracker and its atomic
// threshold, so a fold raises the bar for the very next claim of every
// slot, and in-flight items of the twig abort at ExecutionDriver's
// pre-evaluation checks or inside the kernel
// (DriverRequest::cancel_threshold).
//
// Exactness under concurrency: the threshold starts at kUnfilledThreshold
// and is only ever raised to a full tracker's k-th best probability (a
// monotone max), and answer bounds are >= 0, so an item is pruned or
// cancelled only when the k answers currently in hand all provably beat
// it — a fact answers still in flight can never invalidate. The one bound
// below kUnfilledThreshold is kProvenEmptyBound (plan/query_plan.h): an
// item that provably has no answer prunes against any threshold, so it is
// never evaluated, never probes the result cache, and never charges an
// anytime residual. Which items get pruned or aborted is
// schedule-dependent; the merged top-k is not. Debug builds re-evaluate
// every skipped document and certify the merge (CertifyBoundedTopK).
//
// Failure discipline:
//   * a compile failure fails every document of its pair; the twig's
//     answer slot reports the status of the smallest failing document
//     index, and all of its items are charged items_failed;
//   * evaluation failures record the smallest OBSERVED failing index;
//     compile failures take precedence;
//   * a failed twig stops evaluating: its leftover items are charged
//     items_failed, keeping items_total == evaluated + pruned + aborted +
//     failed.
#ifndef UXM_CORPUS_BOUNDED_SCHEDULER_H_
#define UXM_CORPUS_BOUNDED_SCHEDULER_H_

#include <string>
#include <vector>

#include "cache/bound_cache.h"
#include "corpus/corpus_executor.h"
#include "exec/batch_executor.h"

namespace uxm {

/// A twig race's threshold before its tracker holds k answers: below
/// every answer probability, so nothing with a real bound prunes yet —
/// but above kProvenEmptyBound, so a proven-empty item prunes from the
/// first claim on.
inline constexpr double kUnfilledThreshold = -1.0;
static_assert(kProvenEmptyBound + kAnswerBoundSlack < kUnfilledThreshold,
              "a proven-empty bound must prune against an unfilled race");

/// Runs one bounded corpus batch of `twigs` over `selected` (name-sorted)
/// on `executor`'s pool and returns the per-twig merged answers with the
/// run's reports; `exact` is left for the caller to stamp. `bound_cache`
/// (optional) supplies and receives per-(twig, document) bounds; `cache`
/// (optional) binds the result cache. At `num_shards` >= 2 the response
/// carries one shard_reports entry per shard, each item counted in the
/// shard ShardForDocument names. Requires options.top_k > 0.
CorpusBatchResponse RunBoundedCorpus(
    const BatchQueryExecutor& executor, BoundCache* bound_cache,
    const std::vector<const CorpusDocument*>& selected, size_t num_shards,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache);

}  // namespace uxm

#endif  // UXM_CORPUS_BOUNDED_SCHEDULER_H_

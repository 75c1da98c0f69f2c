// The bound-driven (Threshold-Algorithm) corpus scheduling engine behind
// ShardedCorpusExecutor::Run (shard/sharded_corpus_executor.cc), which
// runs one scheduler per non-empty shard — a single one, on the caller
// thread, at S = 1.
//
// One TwigRace per twig holds the twig's global top-k tracker and its
// atomic pruning threshold. Any number of schedulers may race one set of
// TwigRaces concurrently, each over its own disjoint slice of the
// selected documents (a "shard"): every scheduler runs the same
// bound-phase → best-bound-first wave loop, folds finished answers into
// the SHARED tracker, and prunes/aborts against the SHARED threshold —
// so an answer found by one shard immediately tightens the bar every
// other shard must clear. Document slots (`ranked`) are indexed by
// GLOBAL selected-document index and each scheduler only ever writes the
// slots of its own slice, so after every scheduler has finished the
// races hold exactly what one scheduler over the whole corpus would have
// produced.
//
// The wave loop resolves result-cache hits on the scheduler thread: an
// item that survives its prune check is probed with the driver's key,
// and a hit folds straight into its race (a refcount on the cached
// entry's ranked list — no copy, no re-collapse, no dispatch), raising
// the threshold before the next item's prune check. Only misses are
// collected into executor waves, whose workers fold each finished item
// the same way. Hits spend no evaluation credit of a RunBudget.
//
// Exactness under concurrency: the threshold starts at -1.0 and is only
// ever raised to a full tracker's k-th best probability (a monotone max),
// and answer bounds are >= 0, so an item is pruned or cancelled only when
// the k answers currently in hand all provably beat it — a fact that can
// never be invalidated by answers still in flight (Push only tightens).
// The one bound below -1.0 is kProvenEmptyBound (plan/query_plan.h): an
// item that provably has no answer prunes against any threshold, so it is
// never dispatched, never probes the result cache, and never charges an
// anytime residual — dropping it cannot change any merge.
// Which items get pruned/aborted is schedule-dependent; the merged top-k
// is not. Debug builds re-evaluate every skipped document and certify it
// (CertifyBoundedTopK).
//
// Failure discipline (the same for every shard count):
//   * compile failures are deterministic per (twig, pair), so every
//     scheduler whose slice contains a document of a failing pair
//     observes the same failure; the twig's answer slot reports the
//     status attributed to the smallest failing document index —
//     independent of shard count.
//   * evaluation failures record the smallest OBSERVED failing index;
//     compile failures take precedence (a scheduler never dispatches a
//     twig whose bound phase failed).
//   * a failed twig stops dispatching everywhere: leftover items are
//     charged to items_failed, keeping the per-scheduler report
//     invariant items_total == evaluated + pruned + aborted + failed.
#ifndef UXM_CORPUS_BOUNDED_SCHEDULER_H_
#define UXM_CORPUS_BOUNDED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/bound_cache.h"
#include "corpus/corpus_executor.h"
#include "corpus/run_budget.h"
#include "exec/batch_executor.h"

namespace uxm {

/// A twig race's threshold before its tracker holds k answers: below
/// every answer probability, so nothing with a real bound prunes yet —
/// but above kProvenEmptyBound, so a proven-empty item prunes from the
/// first prune check on.
inline constexpr double kUnfilledThreshold = -1.0;
static_assert(kProvenEmptyBound + kAnswerBoundSlack < kUnfilledThreshold,
              "a proven-empty bound must prune against an unfilled race");

/// \brief The shared race state for one twig of a bounded corpus batch.
/// Concurrently written by every scheduler racing the twig; read-only
/// once all of them have finished (finalization needs no locks).
struct TwigRace {
  TwigRace(int k, size_t num_docs)
      : tracker(k),
        ranked(num_docs),
        compile_doc(num_docs),
        eval_doc(num_docs),
        num_docs(num_docs) {}

  /// The twig's k-th best probability once k answers are in hand
  /// (monotone max, raised under `mu`, read lock-free by the wave
  /// scheduler, the driver's pre-evaluation checks, and the in-kernel
  /// cancellation polls). Starts at kUnfilledThreshold, so only
  /// proven-empty items prune until the tracker fills.
  std::atomic<double> threshold{kUnfilledThreshold};
  /// Set the moment any scheduler observes a failure for this twig;
  /// every scheduler then stops dispatching its items.
  std::atomic<bool> failed{false};
  /// Per-twig disposition tallies (summed across schedulers).
  std::atomic<int> docs_pruned{0};
  std::atomic<int> docs_aborted{0};
  std::atomic<bool> truncated{false};
  /// Anytime serving: the max answer upper bound over this twig's items
  /// the run's budget left unfinished — never dispatched, or aborted
  /// without the threshold proving them prunable (monotone max via
  /// RaiseThreshold; stays 0.0 while the twig is exact). This is the
  /// twig's certified error: any answer of the true top-k missing from
  /// the partial result has probability <= residual_bound.
  std::atomic<double> residual_bound{0.0};
  /// Set whenever an unfinished item was charged to residual_bound — the
  /// twig's merged result is a certified partial, not the exact answer.
  std::atomic<bool> inexact{false};

  std::mutex mu;  ///< guards everything below
  TopKTracker tracker;
  /// Per-document ranked answers, by global selected index — shared with
  /// the item's RankedPtqResult, whether it came from the result cache or
  /// was just evaluated; null until (unless) the item is folded. Each
  /// scheduler writes only its own slice's slots.
  std::vector<RankedAnswersPtr> ranked;
  /// Smallest selected index whose pair failed to compile this twig
  /// (num_docs = none), and the status. Deterministic across schedules.
  size_t compile_doc;
  Status compile_status;
  /// Smallest selected index with an observed evaluation failure.
  size_t eval_doc;
  Status eval_status;
  size_t num_docs;
};

/// \brief One schedulable (twig, document) unit. `doc` is the GLOBAL
/// index into the selected-document list, even when the item belongs to a
/// shard's slice.
struct BoundedPoolItem {
  uint32_t twig;
  uint32_t doc;
  double bound;
  /// The item's BoundCache value after the bound phase (cached or just
  /// probed); +infinity when it has none. A fold whose realized best
  /// probability is not below it skips the (min-keeping, so no-op)
  /// BoundCache insert.
  double cached_bound;
};

/// \brief Everything one scheduler needs, shared across its phases. All
/// pointers are borrowed and must outlive the run; `races` has one entry
/// per twig.
struct BoundedRunContext {
  const BatchQueryExecutor* executor = nullptr;
  BoundCache* bound_cache = nullptr;  ///< optional
  const std::vector<const CorpusDocument*>* selected = nullptr;
  const std::vector<std::string>* twigs = nullptr;
  const BatchCacheContext* cache = nullptr;  ///< optional
  /// Seed unknown bounds with DocumentAnswerUpperBound probes
  /// (CorpusQueryOptions::probe_bounds).
  bool probe_bounds = true;
  /// The executor's base PtqOptions::top_k — the k every per-item bound
  /// and bound-cache key must match.
  int item_k = 0;
  std::vector<std::unique_ptr<TwigRace>>* races = nullptr;
  /// The run's shared deadline/evaluation budget (corpus/run_budget.h);
  /// null = unbudgeted. Every scheduler of a run shares ONE budget — the
  /// wave loop polls it between waves, the driver between phases, the
  /// kernels at their tick sites — so the merged certificate is global.
  RunBudget* budget = nullptr;
  /// What FinalizeBoundedAnswers does with a budget-truncated twig
  /// (CorpusQueryOptions::on_deadline).
  OnDeadline on_deadline = OnDeadline::kReturnPartialCertified;
};

/// \brief One scheduler's accounting: the executor waves it issued and
/// its slice of the corpus disposition counts. For a sharded run this is
/// exactly the per-shard progress report the coordinator aggregates.
struct BoundedScheduleResult {
  BatchRunReport report;
  CorpusRunReport corpus;
};

/// Monotone max on a shared threshold (raised by workers as answers
/// land; read by the schedulers' prune checks and the driver/kernel
/// cancellation checks).
void RaiseThreshold(std::atomic<double>* threshold, double value);

/// Folds one wave's (or one shard's) executor report into run-wide
/// totals: per-thread item counts and abort counters sum, the cumulative
/// cache snapshots take the latest sample.
void AccumulateBatchReport(const BatchRunReport& wave, BatchRunReport* total);

/// The bound phase for one scheduler's slice: for every twig, compiles
/// the twig once per distinct pair among `docs` (ascending global
/// indices into ctx.selected), bounds each document with min(pair bound,
/// cached or probed document bound), and appends pool items for twigs
/// whose compilation succeeded. A compile failure marks the twig's race
/// failed, records the slice's smallest failing index, charges the
/// twig's whole slice to out->corpus.items_failed, and contributes no
/// pool items.
void BuildBoundedPool(const BoundedRunContext& ctx,
                      const std::vector<uint32_t>& docs,
                      std::vector<BoundedPoolItem>* pool,
                      BoundedScheduleResult* out);

/// The wave loop: sorts `pool` best-bound-first (stable, so the caller's
/// (twig order, name order) append order breaks bound ties) and walks
/// it, pruning items whose bound has fallen below their twig's shared
/// threshold, charging items of failed twigs, folding result-cache hits
/// inline, and dispatching the misses in waves of max(executor threads,
/// kMinWaveItems) items, until every pool item is accounted. At the end
/// it samples the compiler and result-cache statistics into
/// out->report, so they are present even when nothing was dispatched. Safe to run concurrently from several threads over
/// disjoint slices against the same races; every scheduler's waves run
/// on the ONE shared BatchQueryExecutor pool (whose dynamic claim loop
/// includes the calling thread, so concurrent schedulers cannot
/// deadlock it). On return out->corpus holds this scheduler's complete
/// evaluated/pruned/aborted/failed split for its pool.
void RunBoundedWaves(const BoundedRunContext& ctx,
                     std::vector<BoundedPoolItem> pool,
                     BoundedScheduleResult* out);

/// Builds the per-twig answer slots from the (now quiescent) races, in
/// input-twig order: failed twigs report their status (compile beats
/// evaluation, smallest index each), the rest k-way-merge their ranked
/// per-document lists to the global top-k. Debug builds certify each
/// merged twig against an exhaustive re-evaluation of every skipped
/// document.
void FinalizeBoundedAnswers(const BoundedRunContext& ctx, int merge_k,
                            std::vector<Result<CorpusQueryResult>>* answers);

}  // namespace uxm

#endif  // UXM_CORPUS_BOUNDED_SCHEDULER_H_

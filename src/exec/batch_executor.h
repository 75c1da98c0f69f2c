// Parallel batch PTQ execution. A batch is a list of {annotated document,
// twig text} items — each bound to a prepared schema pair — fanned across
// a fixed thread pool, the shape of a production query front-end: pairs
// are prepared once and then serve many queries over many documents.
//
// The executor owns only the pool. Everything a worker needs to evaluate
// an item travels WITH the item (its pair carries the mapping set, block
// tree and plan compiler), so one executor serves heterogeneous batches
// spanning several schema pairs, and a re-preparation never needs to
// tear the pool down. Items whose pair is null inherit the Run call's
// default pair.
//
// Concurrency model: every pair's products are immutable and shared
// read-only by every worker; each item is evaluated through the one
// ExecutionDriver protocol (plan cache, early-termination top-k, result
// cache). Items are claimed off an atomic cursor for dynamic load
// balancing, and every answer is written to its input slot, so results
// are always in input order and bit-identical regardless of thread count
// or cache state.
#ifndef UXM_EXEC_BATCH_EXECUTOR_H_
#define UXM_EXEC_BATCH_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/arena.h"
#include "common/status.h"
#include "plan/driver.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/ptq.h"

namespace uxm {

class ThreadPool;

/// \brief One unit of batch work: a twig query against a document.
struct BatchQueryItem {
  const AnnotatedDocument* doc = nullptr;  ///< must outlive the Run call
  std::string twig;                        ///< target-schema twig text
  /// Per-item top-k override; 0 inherits the executor's PtqOptions.
  int top_k = 0;
  /// Per-item result-cache epoch override; 0 inherits the run's
  /// BatchCacheContext epoch. Corpus runs set it so every document's
  /// answers are keyed under that document's own registration epoch
  /// (facade epochs start at 1, so 0 is never a real epoch).
  uint64_t epoch = 0;
  /// The pair to evaluate under; null inherits the Run call's default
  /// pair. Corpus runs set it per document, which is what lets one batch
  /// span documents prepared under different schema pairs.
  std::shared_ptr<const PreparedSchemaPair> pair;
  /// Upper bound on the probability of any answer this item can produce
  /// (see QueryPlan::AnswerUpperBound) — the item's dispatch priority.
  /// Workers claim items in index order, so a caller encodes priority by
  /// sorting the batch descending on this field (the corpus scheduler
  /// does); with a BatchRunControl threshold bound, it is also the bound
  /// the driver cancels against. Ignored without a control.
  double priority = 0.0;
  /// Per-item cancel threshold override; null inherits the run's
  /// BatchRunControl threshold. The cross-twig corpus scheduler mixes
  /// items of several twigs into one dispatch and each twig races its
  /// OWN top-k, so each item must cancel against its own twig's
  /// threshold. Ignored without a control.
  const std::atomic<double>* cancel_threshold = nullptr;
};

/// \brief Optional per-Run hooks for bound-driven scheduling (the corpus
/// Threshold-Algorithm driver). Both fields are optional.
struct BatchRunControl {
  /// Shared, monotonically rising answer-probability threshold: items
  /// whose priority (upper bound) falls below it abort with
  /// Status::Cancelled instead of evaluating (see plan/driver.h).
  const std::atomic<double>* cancel_threshold = nullptr;
  /// Called once per completed item, ON THE WORKER THREAD that ran it,
  /// with the item's batch index and its (shared, ranked) result — before
  /// RunRanked returns. The corpus scheduler uses it to fold finished
  /// answers into its global top-k and raise the threshold mid-run, which
  /// is what lets later items of the same dispatch abort in flight. Must
  /// be thread-safe; must not call back into this executor.
  std::function<void(size_t,
                     const Result<std::shared_ptr<const RankedPtqResult>>&)>
      on_item_done;
  /// Shared deadline/evaluation budget of an anytime corpus run
  /// (corpus/run_budget.h); copied into every item's DriverRequest. Null
  /// = unbudgeted. See DriverRequest::budget for the polling and
  /// cache-poisoning rules it triggers.
  RunBudget* budget = nullptr;
};

/// \brief Executor configuration.
struct BatchExecutorOptions {
  /// Worker threads; 0 = ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Evaluate with Algorithm 4 (block tree) or Algorithm 3 (basic).
  bool use_block_tree = true;
  /// Base evaluation options applied to every item.
  PtqOptions ptq;
};

/// \brief Per-Run result-cache binding. The epoch is whatever counter the
/// owner bumps on Prepare/AttachDocument: entries are keyed under it, so
/// a run that raced an invalidation inserts under the stale epoch and can
/// never satisfy lookups issued after the swap.
struct BatchCacheContext {
  ResultCache* results = nullptr;
  uint64_t epoch = 0;
};

/// \brief Per-run execution statistics.
struct BatchRunReport {
  int num_threads = 0;
  /// Items evaluated by each worker (size == num_threads). Sums to the
  /// batch size; the spread shows load-balancing quality.
  std::vector<int> items_per_thread;
  /// Compiled-plan cache hits over this run's items (a hit skips parse
  /// and schema embedding).
  int query_cache_hits = 0;
  /// Result-cache hits/misses over this run's items (both 0 when Run had
  /// no cache bound). A hit skips evaluation entirely.
  int result_cache_hits = 0;
  int result_cache_misses = 0;
  /// Work units never consumed thanks to early-termination top-k, summed
  /// over this run's items (0 for untruncated/top-k-less traffic).
  int mappings_pruned = 0;
  /// Items aborted in flight by a BatchRunControl cancel threshold
  /// (their result slots hold Status::Cancelled).
  int items_aborted = 0;
  /// The subset of items_aborted whose abort happened INSIDE the
  /// evaluation kernel (the threshold overtook the item after its
  /// evaluation had started), as opposed to the driver's cheap
  /// pre-evaluation checks.
  int items_aborted_in_kernel = 0;
  /// Cumulative cache state sampled at the end of the run: the default
  /// pair's compiler, or the first item's pair when the run had no
  /// default (e.g. corpus fan-outs). Zero-valued only for empty
  /// pair-less runs.
  QueryCompilerStats compiler;
  ResultCacheStats result_cache;
};

/// \brief Fans a batch of PTQs out across a fixed thread pool.
///
/// Run keeps all per-run state (cursor, scratch, result slots) on its own
/// stack, so concurrent Run calls on one executor are safe — they simply
/// share the pool's workers. No fairness is promised, though: the pool's
/// queue is FIFO, so a small Run issued while a large one occupies every
/// worker completes its items on the calling thread but still waits for
/// the earlier batch before returning. Latency-sensitive callers should
/// use their own executor.
class BatchQueryExecutor {
 public:
  explicit BatchQueryExecutor(BatchExecutorOptions options = {});
  ~BatchQueryExecutor();

  BatchQueryExecutor(const BatchQueryExecutor&) = delete;
  BatchQueryExecutor& operator=(const BatchQueryExecutor&) = delete;

  /// Evaluates every item and returns the answers in input order: slot i
  /// of the returned vector is item i's result. Items without their own
  /// pair run under `default_pair` (an item with neither errors only its
  /// own slot, as do parse errors and null documents). When `report` is
  /// non-null it receives this run's statistics. When `cache` binds a
  /// ResultCache, hits skip evaluation and successful answers are
  /// inserted keyed under the item's epoch (or cache->epoch).
  std::vector<Result<PtqResult>> Run(
      const std::vector<BatchQueryItem>& batch,
      const std::shared_ptr<const PreparedSchemaPair>& default_pair,
      BatchRunReport* report = nullptr,
      const BatchCacheContext* cache = nullptr) const;

  /// Run's corpus form: every slot holds the item's shared
  /// RankedPtqResult (ExecutionDriver::ExecuteRanked — a result-cache hit
  /// is the cached entry itself, never a copy). `control` (optional)
  /// threads the corpus scheduler's cancel thresholds, budget and
  /// completion hook through the run (see BatchRunControl).
  std::vector<Result<std::shared_ptr<const RankedPtqResult>>> RunRanked(
      const std::vector<BatchQueryItem>& batch,
      const std::shared_ptr<const PreparedSchemaPair>& default_pair,
      BatchRunReport* report = nullptr,
      const BatchCacheContext* cache = nullptr,
      const BatchRunControl* control = nullptr) const;

  int num_threads() const;

  /// The configuration this executor was built with (the corpus
  /// scheduler derives per-item bounds from options().ptq.top_k).
  const BatchExecutorOptions& options() const { return options_; }

 private:
  friend class ScratchLease;

  /// Checks an arena out of the pool (creating one if empty) / back in.
  /// Leases span one worker slot's whole claim loop, so an arena is only
  /// ever touched by one thread at a time and its capacity — grown to the
  /// workload's high-water mark — is recycled across Runs.
  std::unique_ptr<MonotonicScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<MonotonicScratch> scratch) const;

  /// The shared worker loop of Run (Answer = PtqResult) and RunRanked
  /// (Answer = the shared RankedPtqResult).
  template <typename Answer>
  std::vector<Result<Answer>> RunItems(
      const std::vector<BatchQueryItem>& batch,
      const std::shared_ptr<const PreparedSchemaPair>& default_pair,
      BatchRunReport* report, const BatchCacheContext* cache,
      const BatchRunControl* control) const;

  BatchExecutorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<MonotonicScratch>> scratch_pool_;
};

}  // namespace uxm

#endif  // UXM_EXEC_BATCH_EXECUTOR_H_

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
//
// The claim primitive (RunClaimLoop) is shared with the bounded corpus
// scheduler (corpus/bounded_scheduler.cc): the calling thread runs a
// claim loop as slot 0, and its first evaluation recruits up to W - 1 of
// the pool's workers, once per run, to run the same loop. Each slot
// leases one scratch arena and keeps its own tallies, so the claim hot
// path takes no shared lock, and a run that never evaluates (every item
// pruned or served from a cache) wakes no thread.
#ifndef UXM_EXEC_BATCH_EXECUTOR_H_
#define UXM_EXEC_BATCH_EXECUTOR_H_

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
  /// Items the driver aborted with Status::Cancelled: the corpus
  /// scheduler's cancel threshold or run budget (see
  /// DriverRequest::cancel_threshold). Always 0 for Run and RunRanked.
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

class BatchQueryExecutor;

/// Per-slot tallies of a claim run, summed into BatchRunReport after it.
struct ClaimSlotTally {
  int items = 0;  ///< items this slot evaluated (or rejected) itself
  int compile_hits = 0;
  int result_hits = 0;
  int result_misses = 0;
  int mappings_pruned = 0;
  int aborted = 0;
  int aborted_in_kernel = 0;
};

/// \brief One participant of a claim run (BatchQueryExecutor::
/// RunClaimLoop): the calling thread (slot 0) or a pool helper it
/// recruited. A slot is touched only by its own thread.
class ClaimSlot {
 public:
  ~ClaimSlot();
  ClaimSlot(const ClaimSlot&) = delete;
  ClaimSlot& operator=(const ClaimSlot&) = delete;

  /// Evaluates `request` through ExecutionDriver::ExecuteRanked (or
  /// Execute) on this slot's leased arena and tallies it, counters
  /// included. An exception fails only this request, as Status::Internal.
  Result<std::shared_ptr<const RankedPtqResult>> ExecuteRanked(
      DriverRequest request, DriverCounters* counters = nullptr);
  Result<PtqResult> Execute(DriverRequest request);

  /// Call before each driver evaluation. The first call on slot 0 wakes
  /// min(W - 1, `unclaimed`) pool helpers, which run the same claim loop
  /// as slots 1.., and returns true; every later call, and every call on
  /// a helper, does nothing and returns false.
  bool Recruit(size_t unclaimed);

  ClaimSlotTally tally;

 private:
  friend class BatchQueryExecutor;
  struct RunState;
  ClaimSlot(const BatchQueryExecutor* executor, RunState* run, size_t index)
      : executor_(executor), run_(run), index_(index) {}

  /// The slot's arena, leased on first use and returned on destruction.
  MonotonicScratch* Scratch();
  /// Tallies one driver call.
  void Count(const DriverCounters& counters);

  const BatchQueryExecutor* executor_;
  RunState* run_;
  size_t index_;
  std::unique_ptr<MonotonicScratch> scratch_;
};

/// \brief Fans a batch of PTQs out across a fixed thread pool.
///
/// Run keeps all per-run state (cursor, scratch, result slots) on its own
/// stack, so concurrent Run calls on one executor are safe — they simply
/// share the pool's workers. No fairness is promised, though: the pool's
/// queue is FIFO, so a small Run issued while a large one occupies every
/// worker completes its items on the calling thread but still waits for
/// the helpers it recruited to get through the queue before returning.
/// Latency-sensitive callers should use their own executor.
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
  /// is the cached entry itself, never a copy).
  std::vector<Result<std::shared_ptr<const RankedPtqResult>>> RunRanked(
      const std::vector<BatchQueryItem>& batch,
      const std::shared_ptr<const PreparedSchemaPair>& default_pair,
      BatchRunReport* report = nullptr,
      const BatchCacheContext* cache = nullptr) const;

  /// The one claim primitive behind Run, RunRanked and the bounded
  /// corpus scheduler. Runs `loop` on the calling thread as slot 0, and
  /// on every helper that slot recruits (ClaimSlot::Recruit); returns
  /// once all of them have returned. `loop` claims items from a cursor
  /// the caller owns and returns when it is exhausted. When `report` is
  /// non-null it receives num_threads, items_per_thread and the summed
  /// slot tallies (the cumulative cache samples are the caller's).
  void RunClaimLoop(const std::function<void(ClaimSlot&)>& loop,
                    BatchRunReport* report) const;

  int num_threads() const;

  /// The configuration this executor was built with (the corpus
  /// scheduler derives per-item bounds from options().ptq.top_k).
  const BatchExecutorOptions& options() const { return options_; }

 private:
  friend class ClaimSlot;

  /// Checks an arena out of the pool (creating one if empty) / back in.
  /// A lease spans one slot's whole claim loop, so an arena is only ever
  /// touched by one thread at a time and its capacity — grown to the
  /// workload's high-water mark — is recycled across runs.
  std::unique_ptr<MonotonicScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<MonotonicScratch> scratch) const;

  /// The shared claim loop of Run (Answer = PtqResult) and RunRanked
  /// (Answer = the shared RankedPtqResult).
  template <typename Answer>
  std::vector<Result<Answer>> RunItems(
      const std::vector<BatchQueryItem>& batch,
      const std::shared_ptr<const PreparedSchemaPair>& default_pair,
      BatchRunReport* report, const BatchCacheContext* cache) const;

  BatchExecutorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<MonotonicScratch>> scratch_pool_;
};

}  // namespace uxm

#endif  // UXM_EXEC_BATCH_EXECUTOR_H_

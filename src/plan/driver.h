// The execution driver — the ONE evaluate path behind Query, QueryTopK,
// QueryBasic, RunBatch, QueryCorpus and RunCorpusBatch. It runs the full
// plan/execute protocol for a single (twig, document, pair) request:
//
//   result-cache probe → compile (plan cache) → early-termination top-k
//   mapping selection → prepared evaluation → result-cache insert
//
// The key schema (ResultKey) and insert rules live only here, so
// single-shot queries, batch workers and corpus fan-outs can never drift
// apart (they used to be three separately-evolved copies of this
// protocol); the corpus scheduler's inline hit probes build their keys
// with ResultKey too.
//
// A miss builds the answer's RankedPtqResult (the PtqResult plus its
// ranked match sets) once, on the path that inserts it; a hit hands out
// that shared entry. ExecuteRanked returns the entry itself — the corpus
// path's zero-copy form — and Execute copies its PtqResult out for the
// public single-document calls.
//
// Top-k requests select mappings through QueryPlan::SelectForTopK, which
// consumes the pair's descending-probability work units and stops as
// soon as the residual mass provably cannot alter the top-k answer set —
// exact, not approximate (differential-tested against the unpruned
// enumeration).
#ifndef UXM_PLAN_DRIVER_H_
#define UXM_PLAN_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "cache/item_key.h"
#include "cache/result_cache.h"
#include "common/arena.h"
#include "common/status.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/ptq.h"

namespace uxm {

class RunBudget;  // corpus/run_budget.h

/// \brief One driver request: a twig against one document prepared under
/// one schema pair. Pointers are borrowed and must outlive the call.
struct DriverRequest {
  const PreparedSchemaPair* pair = nullptr;  ///< required
  const AnnotatedDocument* doc = nullptr;    ///< required, bound to
                                             ///< pair->source()
  const std::string* twig = nullptr;         ///< required
  /// Effective evaluation options; options.top_k is part of the cache
  /// key and drives the early-termination selection.
  PtqOptions options;
  bool use_block_tree = true;  ///< Algorithm 4 vs Algorithm 3.
  ResultCache* cache = nullptr;  ///< null = no answer caching
  uint64_t epoch = 0;            ///< result-cache epoch stamp

  /// Cooperative bound-driven cancellation (the corpus scheduler's
  /// Threshold-Algorithm): `upper_bound` is a proven upper bound on the
  /// probability of any answer this request can produce (normally
  /// QueryPlan::AnswerUpperBound), and `cancel_threshold` — shared,
  /// monotonically raised by the scheduler as better answers land — is
  /// the current k-th best answer probability. Whenever threshold >
  /// upper_bound + kAnswerBoundSlack, no answer of this request can
  /// enter the global top-k, so Execute aborts with Status::Cancelled
  /// (checked on entry after the result-cache probe, again between
  /// mapping selection and evaluation, and periodically INSIDE the
  /// evaluation kernel — see KernelCancelContext — so a long evaluation
  /// the threshold passes mid-flight stops within microseconds instead
  /// of running to completion). Null threshold = never cancel.
  double upper_bound = 0.0;
  const std::atomic<double>* cancel_threshold = nullptr;

  /// Deadline/evaluation budget of an anytime corpus run
  /// (corpus/run_budget.h), shared by every request of the run; null =
  /// unbudgeted. Execute polls it at the same spots it polls the cancel
  /// threshold, charges one evaluation credit before entering the kernel
  /// (result-cache hits are free), and hands the kernel the expiry flag +
  /// deadline so a long evaluation aborts mid-flight. A budget-expired
  /// request aborts with Status::Cancelled like a threshold cancel — the
  /// scheduler tells the two apart by re-checking the threshold.
  ///
  /// Cache-poisoning rule: a non-null budget also DISABLES the
  /// result-cache insert (lookups still serve). A budgeted run can be
  /// truncated at any moment, and nothing it produced may outlive it into
  /// answers served to unbudgeted callers.
  RunBudget* budget = nullptr;

  /// Scratch arena for the flat kernel, Reset at the start of each
  /// evaluation. Null = the calling thread's ThreadLocalScratch().
  /// BatchQueryExecutor leases one per worker slot so batch steady state
  /// allocates nothing.
  MonotonicScratch* scratch = nullptr;
};

/// \brief What one Execute call did (for report tallies).
struct DriverCounters {
  bool compile_hit = false;
  bool result_hit = false;
  bool result_miss = false;  ///< looked up but absent (false if no cache)
  bool cancelled = false;    ///< aborted by the shared cancel threshold
  /// Set (along with `cancelled`) when the abort happened INSIDE the
  /// evaluation kernel — the threshold passed this item after evaluation
  /// had already started — as opposed to the cheap pre-evaluation checks.
  bool cancelled_in_kernel = false;
  /// Early-termination accounting of the mapping selection (zero on a
  /// result-cache hit — nothing was selected).
  PlanSelectStats select;
};

/// The driver's result-cache key for one evaluation: (twig, document
/// identity, epoch, effective top-k, algorithm, pair id). `twig_hash`
/// must be HashTwig(twig); callers probing many documents with one twig
/// compute it once. The corpus scheduler keys its inline result-cache
/// probes and its BoundCache entries with this same function.
ItemKeyRef ResultKey(std::string_view twig, size_t twig_hash,
                     const AnnotatedDocument& doc, uint64_t epoch, int top_k,
                     bool use_block_tree, const PreparedSchemaPair& pair);

/// \brief Stateless driver; Execute is safe to call from any number of
/// threads concurrently (all shared state lives in the pair's internally
/// synchronized compiler/plans and the sharded result cache).
class ExecutionDriver {
 public:
  /// Runs the protocol and returns the answer in its shared, immutable
  /// form: on a result-cache hit the cached entry itself (no copy), on a
  /// miss the entry built from the fresh evaluation (and inserted, unless
  /// the request is budgeted).
  static Result<std::shared_ptr<const RankedPtqResult>> ExecuteRanked(
      const DriverRequest& request, DriverCounters* counters = nullptr);

  /// Runs the protocol and returns a PtqResult the caller owns: a hit
  /// copies the cached answer once; a miss that is not inserted never
  /// builds the ranked form.
  static Result<PtqResult> Execute(const DriverRequest& request,
                                   DriverCounters* counters = nullptr);
};

}  // namespace uxm

#endif  // UXM_PLAN_DRIVER_H_

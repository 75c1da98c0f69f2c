// Flat-array PTQ evaluation kernel (ROADMAP item 3).
//
// Drop-in replacements for PtqEvaluator::EvaluateTreePrepared /
// EvaluateBasicPrepared that run entirely over the FlatPairIndex
// (blocktree/flat_block_tree.h) with every intermediate — candidate
// lists, satisfaction sets, per-mapping projected results, output
// accumulators — carved out of a caller-supplied MonotonicScratch. The
// only heap traffic per call is the returned PtqResult; once the arena
// has grown to the workload's high-water mark, the steady-state inner
// loop performs zero allocations.
//
// This is THE evaluation kernel: the execution driver and PtqEvaluator
// both run through it (the legacy pointer kernel it replaced was
// differential-tested bit-identical before deletion).
//
// Arena lifetime: the caller Resets the arena before each evaluation
// (plan/driver.cc does); everything allocated during the call dies at
// the next Reset. Arenas are single-threaded — BatchQueryExecutor leases
// one per worker slot, and ThreadLocalScratch() serves direct Query
// traffic.
#ifndef UXM_QUERY_FLAT_KERNEL_H_
#define UXM_QUERY_FLAT_KERNEL_H_

#include <atomic>
#include <chrono>
#include <vector>

#include "blocktree/flat_block_tree.h"
#include "common/arena.h"
#include "common/status.h"
#include "query/annotated_document.h"
#include "query/ptq.h"

namespace uxm {

/// The per-thread fallback arena used when a caller has no leased one
/// (direct Query / QueryTopK / QueryBasic traffic). Never shared across
/// threads; reset by the driver at the start of each evaluation.
MonotonicScratch* ThreadLocalScratch();

/// \brief In-kernel cancellation hook for bound-driven corpus runs.
///
/// The kernel periodically (every few dozen inner-loop steps, to keep the
/// hot path branch-cheap) performs a relaxed load of `*threshold` and
/// abandons the evaluation with Status::Cancelled the moment the loaded
/// value exceeds `cancel_above` — the caller's answer upper bound plus
/// kAnswerBoundSlack, precomputed so the kernel compares two doubles and
/// nothing else. Cancellation is a pure early-out: no partially-built
/// answer escapes (the result is discarded with the arena), so it cannot
/// perturb exactness — the scheduler only cancels items it has already
/// proven unable to affect the top-k. Null `threshold` (or a null
/// context) disables the threshold checks.
///
/// Budgeted corpus runs (corpus/run_budget.h) additionally set `expired`
/// — the run's sticky expiry flag — and `deadline`. The same poll sites
/// then also abandon the evaluation once the flag is set, and the kernel
/// reads the clock itself against `deadline` so even a single stuck
/// evaluation expires the whole run (publishing the flag for everyone
/// else) within one poll interval instead of when the evaluation ends.
/// Unlike a threshold cancel, a budget cancel is NOT exactness-preserving:
/// the scheduler charges the item's bound to the twig's certified
/// residual (see CorpusQueryResult::max_residual_bound).
struct KernelCancelContext {
  const std::atomic<double>* threshold = nullptr;
  double cancel_above = 0.0;
  std::atomic<bool>* expired = nullptr;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Algorithm 3 (query_basic) over the flat index: rewrite + match
/// independently per (mapping, embedding), answers unioned per mapping.
Result<PtqResult> EvaluateBasicFlat(
    const TwigQuery& query,
    const std::vector<std::vector<SchemaNodeId>>& embeddings,
    const std::vector<MappingId>& relevant, bool truncated,
    const FlatPairIndex& index, const AnnotatedDocument& doc,
    const PtqOptions& options, MonotonicScratch* arena,
    const KernelCancelContext* cancel = nullptr);

/// Algorithm 4 (twig_query_tree) over the flat index, with the c-block
/// fast path resolved through the precomputed self_anchored[] column
/// instead of the string-keyed hash table, and block results replicated
/// to the block's mappings as arena spans.
Result<PtqResult> EvaluateTreeFlat(
    const TwigQuery& query,
    const std::vector<std::vector<SchemaNodeId>>& embeddings,
    const std::vector<MappingId>& relevant, bool truncated,
    const FlatPairIndex& index, const AnnotatedDocument& doc,
    const PtqOptions& options, MonotonicScratch* arena,
    const KernelCancelContext* cancel = nullptr);

}  // namespace uxm

#endif  // UXM_QUERY_FLAT_KERNEL_H_

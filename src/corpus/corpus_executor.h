// Cross-document top-k PTQ execution: the corpus query and report types,
// the one corpus answer order, and the k-way merge. A corpus query fans
// one twig (or a batch of twigs) across every document of a corpus
// snapshot (shard/sharded_store.h) on the shared BatchQueryExecutor
// thread pool; its one entry point is ShardedCorpusExecutor::Run
// (shard/sharded_corpus_executor.h). Every item carries its document's
// prepared pair, so one fan-out may span documents prepared under
// DIFFERENT schema pairs (a heterogeneous corpus): each (twig, document)
// evaluation compiles/plans the twig against that document's own pair and
// goes through the shared result cache — keys carry the per-document
// epoch and pair id — and the per-document PtqResults are k-way-merged
// into one global answer list ranked by answer probability, every answer
// tagged with the document it came from.
//
// Bound-driven scheduling (Threshold Algorithm over §IV-C bounds): when a
// global top-k budget is set, the scheduler does NOT evaluate every
// (twig, document) item. Each item gets an answer upper bound from two
// sources, and the scheduler uses their min:
//
//   * the pair-level bound (QueryPlan::AnswerUpperBound — the mass of
//     the mappings the item's selection may consume, derived from the
//     pair's shared descending-probability work-unit order), shared by
//     every document prepared under one pair; and
//   * a per-(twig, document) refinement from the registry's BoundCache
//     (cache/bound_cache.h): the realized best answer of a prior
//     evaluation under the same key, seeded on first contact by a cheap
//     match-existence probe over the document's annotation
//     (QueryPlan::DocumentAnswerUpperBound). This is what lets a
//     HOMOGENEOUS single-pair corpus prune: under one pair every item
//     shares one pair bound, but skewed documents get strictly smaller
//     document bounds. An item the probe (or a prior evaluation) proves
//     to have no answer at all gets kProvenEmptyBound, which prunes
//     before dispatch even while the twig holds fewer than k answers.
//
// All (twig, document) items of the batch enter ONE shared claim pool,
// interleaved best-bound-first across twigs (many-twig batches keep wide
// pools saturated instead of draining one twig at a time).
// Each twig races its own top-k: a per-twig tracker keeps the k best
// answers found so far, and the twig's k-th best probability is
// published as its own atomic threshold that (a) stops dispatching —
// an item whose bound falls below its twig's threshold is pruned
// unevaluated — and (b) aborts already-dispatched items in flight (the
// ExecutionDriver rechecks the threshold before its expensive phases,
// and the flat kernel polls it every few dozen inner-loop steps, so
// even a long evaluation the threshold overtakes mid-flight stops
// within microseconds and returns Status::Cancelled). This is EXACT,
// not approximate: an item is only skipped when every answer it could
// produce provably ranks below its twig's current k-th best (strict
// inequality with kAnswerBoundSlack guarding float noise; realized
// bounds are exact because evaluation is deterministic in the cache
// key), so the merged top-k is bit-identical to the exhaustive fan-out
// — debug builds re-evaluate every skipped item and certify it, and
// tests/differential_test.cc sweeps bounded vs brute force.
//
// Result-cache hits never reach the driver: right after an item survives
// its prune check, the claiming slot probes the result cache with the
// driver's key (ResultKey in plan/driver.h). A hit folds straight into
// its twig's race — one hash probe and one refcount, no copy, no
// re-collapse — so its answers raise the threshold before the next
// claim; only misses are evaluated, and the first of them recruits the
// pool's helpers. On a warm corpus a query therefore wakes no thread.
//
// Merge semantics: each document's answers come as the ranked match sets
// of its RankedPtqResult (PtqResult::RankedMatchSets — answers over
// different mappings that bind the same document nodes aggregate their
// probabilities, empty match sets are dropped, and ties get a canonical
// order), built once by the driver on the miss path and shared from the
// result cache on hits. The per-document lists are merged with a heap
// into the global top-k, and only the <= k winners are materialized as
// CorpusAnswers tagged with their document's name.
// Ties break deterministically on (document name, match list), so the
// result is identical for any thread count, cache state, or pruning
// schedule.
#ifndef UXM_CORPUS_CORPUS_EXECUTOR_H_
#define UXM_CORPUS_CORPUS_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/batch_executor.h"
#include "query/ptq.h"
#include "shard/sharded_store.h"

namespace uxm {

/// \brief One merged corpus answer: a set of witness nodes in one
/// document, with the total probability mass of the mappings that
/// produced it.
struct CorpusAnswer {
  std::string document;  ///< provenance: corpus document name
  double probability = 0.0;
  std::vector<DocNodeId> matches;  ///< non-empty, sorted, distinct
};

/// \brief Policy for a corpus run whose budget (deadline /
/// max_evaluations) expired before the run finished.
enum class OnDeadline {
  /// Return the current top-k plus a certified error bound: the affected
  /// answer slots come back OK with `exact == false` and
  /// `max_residual_bound` set — every answer present is a real answer
  /// with its exact probability, and any answer of the true top-k that
  /// is missing has probability <= max_residual_bound.
  kReturnPartialCertified = 0,
  /// Fail every budget-truncated twig's answer slot with
  /// StatusCode::kDeadlineExceeded (twigs the budget did not touch still
  /// return their exact answers).
  kFail,
};

/// \brief Knobs for one corpus query / batch.
struct CorpusQueryOptions {
  /// Global answer budget after the merge; 0 keeps every non-empty
  /// answer of every document.
  int top_k = 10;
  /// Restrict the fan-out to these document names (empty = whole
  /// corpus). Unknown names fail the call with NotFound.
  std::vector<std::string> documents;
  /// Use the bound-driven scheduler when top_k > 0 (see file comment).
  /// false forces the exhaustive evaluate-everything fan-out — the
  /// oracle the differential tests and the BM_BoundedCorpusTopK /
  /// BM_ExhaustiveCorpusTopK benchmark pair compare against. The
  /// ANSWERS are identical either way; only the work differs — which
  /// also means an evaluation failure inside a document the scheduler
  /// skipped is never observed (see ShardedCorpusExecutor::Run).
  bool bounded = true;
  /// Seed unknown (twig, document) bounds with the cheap match-existence
  /// probe over the document's annotation
  /// (QueryPlan::DocumentAnswerUpperBound) during the bound phase.
  /// Realized bounds recorded by prior bounded runs are consulted either
  /// way (through the BoundCache the executor was built with). Only
  /// meaningful for the bounded scheduler.
  bool probe_bounds = true;

  // ---- Anytime / budgeted serving (ROADMAP item 5) ----
  //
  // A run with any budget set degrades gracefully instead of blowing a
  // latency SLO: when the budget expires the scheduler stops dispatching,
  // cancels in-flight items (the driver and the kernels poll the shared
  // expiry; see corpus/run_budget.h), and — under kReturnPartialCertified
  // — returns the top-k found so far with a certified per-twig residual
  // bound. Budgets apply to the bounded scheduler only (bounded == true
  // and top_k > 0); the exhaustive path is the differential oracle and
  // ignores them. A budgeted run never inserts into the ResultCache, and
  // aborted items never record realized masses into the BoundCache, so a
  // truncated run can never poison later exact runs.

  /// Absolute steady-clock deadline for the whole run (all twigs, all
  /// shards — one global budget). max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// At most this many (twig, document) kernel evaluations may start;
  /// 0 = unlimited. Result-cache hits, pruned items and budget-skipped
  /// items are free.
  int64_t max_evaluations = 0;
  /// What a budget expiry returns (ignored while the budget holds).
  OnDeadline on_deadline = OnDeadline::kReturnPartialCertified;
};

/// \brief Merged answers for one twig over the corpus.
struct CorpusQueryResult {
  /// Descending by probability; ties by (document name, matches).
  std::vector<CorpusAnswer> answers;
  /// Documents the fan-out considered (the corpus or the
  /// options.documents subset) — pruned/aborted ones included: pruning
  /// is exact, so a skipped document still "participated" in the answer.
  int documents_evaluated = 0;
  /// Of those, documents never dispatched because their answer upper
  /// bound fell below the k-th best answer, or because they were proven
  /// empty (kProvenEmptyBound; bound-driven pruning), and documents
  /// aborted in flight by the shared threshold.
  int documents_pruned = 0;
  int documents_aborted = 0;
  /// True if any contributing evaluation hit the max_embeddings cap.
  bool truncated_embeddings = false;
  /// False when the run's budget (CorpusQueryOptions::deadline /
  /// max_evaluations) expired before this twig finished: `answers` is
  /// then a certified PARTIAL top-k — every answer present is a real
  /// answer with its exact probability, and any answer of the true top-k
  /// that is missing has probability <= max_residual_bound. Unbudgeted
  /// runs are always exact (their pruning is, see file comment).
  bool exact = true;
  /// The certified error of a partial result: the max answer upper bound
  /// over this twig's unfinished items (never dispatched, or aborted by
  /// the budget without the threshold proving them prunable). 0 when
  /// exact.
  double max_residual_bound = 0.0;
};

/// \brief Bound-driven scheduling statistics for one corpus run, summed
/// over every twig of the batch. items are (twig, document) units.
/// Invariant (pinned by tests): items_total == items_evaluated +
/// items_pruned + items_aborted + items_failed — every considered item
/// lands in exactly one bucket, failures included.
struct CorpusRunReport {
  int items_total = 0;      ///< twig x document units considered
  /// Items whose answers were folded: dispatched and evaluated, or served
  /// inline from the result cache (BatchRunReport::result_cache_hits
  /// counts both kinds of hit).
  int items_evaluated = 0;
  /// Never dispatched: bound below threshold, or proven empty.
  int items_pruned = 0;
  /// Cancelled in flight (by the threshold or the run's budget), or
  /// claimed after the budget expired (items_deadline_skipped).
  int items_aborted = 0;
  /// Of items_aborted, those whose abort happened INSIDE the evaluation
  /// kernel rather than at the driver's cheap pre-evaluation checks.
  int items_aborted_in_kernel = 0;
  /// Items that failed (their twig's answer slot holds the status) plus
  /// items never dispatched because their twig had already failed — a
  /// compile failure charges the twig's whole document count here.
  int items_failed = 0;
  /// Helper recruitments: 1 once the run reaches its first driver
  /// evaluation — the point where the claim loop wakes the pool's W - 1
  /// helpers, none at W = 1 — and 0 for a run whose every item was
  /// pruned, served from the result cache or failed before evaluation.
  /// The exhaustive path reports 1 for any non-empty batch.
  int dispatches = 0;
  /// Of items_aborted, items never dispatched at all because the run's
  /// budget (deadline / max_evaluations) expired first. Budget aborts of
  /// items already in flight land in items_aborted(_in_kernel) like
  /// threshold aborts.
  int items_deadline_skipped = 0;
  /// Wall-clock nanoseconds of the run's bound phase and claim loop (the
  /// merge excluded). A shard_reports entry carries the run's time
  /// apportioned by its share of items_total, so the entries sum to the
  /// aggregate like every other field.
  int64_t elapsed_ns = 0;
};

/// \brief Batch answers, one slot per input twig (input order), plus the
/// underlying executor's run statistics and the scheduler's pruning
/// accounting.
struct CorpusBatchResponse {
  std::vector<Result<CorpusQueryResult>> answers;
  /// The executor statistics of the run's evaluated items —
  /// items_per_thread counts driver evaluations per claim slot only —
  /// plus the inline result-cache hits in result_cache_hits. The cumulative `compiler`
  /// and `result_cache` samples are taken by the scheduler at the end of
  /// the run, so a fully warm run that dispatches nothing still reports
  /// them.
  BatchRunReport report;
  CorpusRunReport corpus;
  /// Per-shard views of a bounded run over S >= 2 shards, in shard index
  /// order: each entry counts the items of the documents that shard
  /// holds (ShardForDocument), read off the run's per-item disposition
  /// record, and the entries sum field by field to `corpus` (dispatches
  /// goes to the shard of the item that recruited; elapsed_ns is
  /// apportioned). Empty at S = 1 and on the exhaustive path.
  std::vector<CorpusRunReport> shard_reports;
  /// False iff any answer slot was budget-truncated — an OK slot with
  /// `exact == false`, or a kDeadlineExceeded failure under
  /// OnDeadline::kFail. A quick "was this batch the exact answer?" bit.
  bool exact = true;
};

/// Global answer order: probability descending, then document name, then
/// match list (both ascending) so equal-probability answers have one
/// canonical ranking. Exposed for testing (MergeTopK ranks by it, and
/// PtqResult::RankedMatchSets by its restriction to one document).
bool AnswerBefore(const CorpusAnswer& a, const CorpusAnswer& b);

/// \brief The k best answer probabilities seen so far for one twig; the
/// k-th best is the pruning threshold once k answers are in hand.
///
/// Only probabilities are kept: the k-th best probability among the
/// answers offered does not depend on how equal-probability answers
/// tie-break, so the documents and match lists that AnswerBefore needs
/// for the merge are never copied in.
///
/// k <= 0 means "no budget": the tracker holds nothing, full() is never
/// true and kth_probability() is 0.0, so a caller that prunes only
/// against a full tracker (the scheduler's contract) prunes nothing.
class TopKTracker {
 public:
  explicit TopKTracker(int k) : k_(k) {}

  /// Offers one answer probability. Returns false — and changes nothing —
  /// when it cannot enter the top-k: k <= 0, or k answers are held and it
  /// does not beat the k-th.
  bool Push(double probability) {
    if (k_ <= 0) return false;
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push(probability);
      return true;
    }
    if (!(probability > heap_.top())) return false;
    heap_.pop();
    heap_.push(probability);
    return true;
  }

  /// Offers a ranked list (PtqResult::RankedMatchSets, probability
  /// descending), stopping at the first answer that cannot enter: every
  /// later answer ranks no higher, so none of them could either.
  void PushRanked(const std::vector<MappingAnswer>& ranked) {
    for (const MappingAnswer& a : ranked) {
      if (!Push(a.probability)) return;
    }
  }

  /// True iff k answers are in hand (never for k <= 0).
  bool full() const { return k_ > 0 && static_cast<int>(heap_.size()) >= k_; }

  /// The current k-th best probability; 0.0 while empty (a threshold no
  /// bound can strictly fall below, so it never prunes).
  double kth_probability() const { return heap_.empty() ? 0.0 : heap_.top(); }

 private:
  int k_;
  /// Min-heap: top() is the k-th best once full.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      heap_;
};

/// One document's ranked answers (PtqResult::RankedMatchSets), shared
/// with the RankedPtqResult they belong to — usually a result-cache
/// entry, so holding the list keeps that entry alive without copying it.
using RankedAnswersPtr = std::shared_ptr<const std::vector<MappingAnswer>>;

/// The ranked answers of `entry`, sharing its ownership (no copy).
inline RankedAnswersPtr RankedAnswersOf(
    const std::shared_ptr<const RankedPtqResult>& entry) {
  return RankedAnswersPtr(entry, &entry->ranked);
}

/// One document's PtqResult as corpus answers tagged `name`: its ranked
/// match sets (PtqResult::RankedMatchSets). Exposed for testing — the
/// brute-force oracles collapse single-document Query results with it.
std::vector<CorpusAnswer> CollapseForCorpus(const std::string& name,
                                            const PtqResult& result);

/// K-way-merges per-document answer lists (each sorted the way
/// CollapseForCorpus sorts) into the global top-k. `k <= 0` keeps all.
/// Exposed for testing: the facade acceptance property is that this over
/// per-document Query results equals QueryCorpus.
std::vector<CorpusAnswer> MergeTopK(
    const std::vector<std::vector<CorpusAnswer>>& per_document, int k);

/// The corpus runs' merge: k-way-merges per-document ranked lists —
/// `ranked[d]` belongs to `docs[d]`, null for a document never evaluated
/// — into the global top-k (`k <= 0` keeps all), attaching document names
/// only to the answers it returns. Identical to MergeTopK over the
/// CollapseForCorpus lists.
std::vector<CorpusAnswer> MergeTopK(
    const std::vector<const CorpusDocument*>& docs,
    const std::vector<RankedAnswersPtr>& ranked, int k);

}  // namespace uxm

#endif  // UXM_CORPUS_CORPUS_EXECUTOR_H_

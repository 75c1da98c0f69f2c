#include "corpus/bounded_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "corpus/run_budget.h"
#include "plan/driver.h"
#include "shard/sharded_store.h"

namespace uxm {

namespace {

/// PoolItem::cached_bound of an item without a BoundCache value.
constexpr double kNoCachedBound = std::numeric_limits<double>::infinity();

/// \brief The race state of one twig. Written concurrently by every slot
/// of the claim loop; read-only once the loop has joined.
struct TwigRace {
  TwigRace(int k, size_t num_docs)
      : tracker(k),
        ranked(num_docs),
        compile_doc(num_docs),
        eval_doc(num_docs),
        num_docs(num_docs) {}

  /// The twig's k-th best probability once k answers are in hand
  /// (monotone max, raised under `mu`, read lock-free by the claims, the
  /// driver's pre-evaluation checks and the in-kernel cancellation
  /// polls). Starts at kUnfilledThreshold, so only proven-empty items
  /// prune until the tracker fills.
  std::atomic<double> threshold{kUnfilledThreshold};
  /// Set the moment the twig fails; later claims charge its items failed.
  std::atomic<bool> failed{false};
  std::atomic<bool> truncated{false};
  /// Anytime serving: the max answer upper bound over this twig's items
  /// the run's budget left unfinished — never evaluated, or aborted
  /// without the threshold proving them prunable (monotone max via
  /// RaiseThreshold; stays 0.0 while the twig is exact). Any answer of
  /// the true top-k missing from the partial result has probability <=
  /// residual_bound.
  std::atomic<double> residual_bound{0.0};
  /// Set whenever an unfinished item was charged to residual_bound — the
  /// twig's merged result is a certified partial, not the exact answer.
  std::atomic<bool> inexact{false};

  std::mutex mu;  ///< guards the tracker, `ranked` and the eval failure
  TopKTracker tracker;
  /// Per-document ranked answers, by selected index — shared with the
  /// item's RankedPtqResult, whether it came from the result cache or was
  /// just evaluated; null until (unless) the item is folded.
  std::vector<RankedAnswersPtr> ranked;
  /// Smallest selected index whose pair failed to compile this twig
  /// (num_docs = none), and the status. Set by the bound phase.
  size_t compile_doc;
  Status compile_status;
  /// Smallest selected index with an observed evaluation failure.
  size_t eval_doc;
  Status eval_status;
  size_t num_docs;
  /// Pruned and aborted documents, tallied from the disposition record
  /// after the claim loop.
  int docs_pruned = 0;
  int docs_aborted = 0;
};

/// \brief One schedulable (twig, document) unit; `doc` indexes the
/// selected-document list.
struct PoolItem {
  uint32_t twig;
  uint32_t doc;
  double bound;
  /// The item's BoundCache value after the bound phase (cached or just
  /// probed); kNoCachedBound when it has none. A fold whose realized best
  /// probability is not below it skips the (min-keeping, so no-op)
  /// BoundCache insert.
  double cached_bound;
};

/// Where a claimed item ended up. Written once, by the slot that claimed
/// it; read after the claim loop has joined.
enum class Disposition : uint8_t {
  kEvaluated,        ///< folded: evaluated, or an inline result-cache hit
  kPruned,           ///< bound below the twig's threshold, or proven empty
  kAborted,          ///< cancelled at ExecutionDriver's pre-evaluation checks
  kAbortedInKernel,  ///< cancelled inside the evaluation kernel
  kDeadlineSkipped,  ///< claimed after the run's budget had expired
  kFailed,           ///< failed, or its twig had already failed
};

/// Everything the phases of one run share. Pointers are borrowed.
struct BoundedRun {
  const BatchQueryExecutor* executor = nullptr;
  BoundCache* bound_cache = nullptr;  ///< optional
  const std::vector<const CorpusDocument*>* selected = nullptr;
  const std::vector<std::string>* twigs = nullptr;
  std::vector<size_t> twig_hashes;  ///< HashTwig of every twig
  const BatchCacheContext* cache = nullptr;  ///< optional
  ResultCache* results = nullptr;            ///< cache->results, or null
  bool probe_bounds = true;
  /// The executor's base PtqOptions::top_k — the k every per-item bound
  /// and bound-cache key must match (corpus items carry no top_k).
  int item_k = 0;
  /// The run's shared deadline/evaluation budget; null = unbudgeted.
  RunBudget* budget = nullptr;
  std::vector<std::unique_ptr<TwigRace>> races;  ///< one per twig
};

/// Monotone max on a shared threshold or residual.
void RaiseThreshold(std::atomic<double>* threshold, double value) {
  double current = threshold->load(std::memory_order_relaxed);
  while (value > current &&
         !threshold->compare_exchange_weak(current, value,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

/// True when the twig's k answers in hand provably beat every answer the
/// item could produce.
bool Prunable(const PoolItem& pi, const TwigRace& race) {
  return pi.bound + kAnswerBoundSlack <
         race.threshold.load(std::memory_order_acquire);
}

/// Charges an unfinished item's bound to its twig's certified residual.
void ChargeResidual(const PoolItem& pi, TwigRace* race) {
  RaiseThreshold(&race->residual_bound, pi.bound);
  race->inexact.store(true, std::memory_order_release);
}

/// The key of item (twig `t`, `entry`) — the driver's ResultKey, used for
/// both its result-cache probe and its BoundCache entry. A corpus item's
/// epoch is its document's; an unstamped (0) document inherits the run's
/// cache epoch, as BatchQueryExecutor items do.
uint64_t ItemEpoch(const BoundedRun& run, const CorpusDocument& entry) {
  return entry.epoch != 0 || run.cache == nullptr ? entry.epoch
                                                  : run.cache->epoch;
}

ItemKeyRef ItemKeyFor(const BoundedRun& run, size_t t,
                      const CorpusDocument& entry) {
  return ResultKey((*run.twigs)[t], run.twig_hashes[t], *entry.annotated,
                   ItemEpoch(run, entry), run.item_k,
                   run.executor->options().use_block_tree, *entry.pair);
}

/// Folds one finished item — an inline result-cache hit or a fresh
/// evaluation — into its twig's race. Nothing is copied: the race keeps a
/// share of the entry's ranked list, and the tracker reads only
/// probabilities, stopping at the first answer that cannot enter the
/// top-k.
void FoldItem(const BoundedRun& run, const PoolItem& pi,
              const ItemKeyRef& key,
              const std::shared_ptr<const RankedPtqResult>& entry) {
  TwigRace& race = *run.races[pi.twig];
  const std::vector<MappingAnswer>& ranked = entry->ranked;
  const double best =
      ranked.empty() ? kProvenEmptyBound : ranked.front().probability;
  // Realized bound: evaluation is deterministic in this key, so the best
  // ranked answer is an exact bound for any later run under the same key
  // — usually far tighter than the probe it refines — and an empty ranked
  // list proves the item empty, so later runs prune it unevaluated.
  // Insert keeps the min, so a stored bound that is already no larger
  // (every warm hit's) needs no insert.
  if (run.bound_cache != nullptr && !(pi.cached_bound <= best)) {
    run.bound_cache->Insert(key, best);
  }
  if (entry->result.truncated_embeddings) {
    race.truncated.store(true, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(race.mu);
  race.tracker.PushRanked(ranked);
  if (race.tracker.full()) {
    RaiseThreshold(&race.threshold, race.tracker.kth_probability());
  }
  race.ranked[pi.doc] = RankedAnswersOf(entry);
}

/// The bound phase, on the calling thread: for every twig, compiles the
/// twig once per distinct pair, bounds each document with min(pair
/// bound, cached or probed document bound), and returns one pool item
/// per (twig, document), in (twig, name) order. A compile failure marks
/// the twig's race failed with the smallest failing index; its items
/// still enter the pool, so the claim loop charges every one of them
/// items_failed.
std::vector<PoolItem> BuildPool(const BoundedRun& run) {
  const std::vector<const CorpusDocument*>& selected = *run.selected;
  const uint32_t num_docs = static_cast<uint32_t>(selected.size());
  std::vector<PoolItem> pool;
  pool.reserve(run.twigs->size() * num_docs);
  for (uint32_t t = 0; t < run.twigs->size(); ++t) {
    TwigRace& race = *run.races[t];
    // Compile once per distinct pair: the schema-level bound is
    // document-free and shared by all of the pair's documents.
    struct PairInfo {
      Status status = Status::OK();
      std::shared_ptr<const QueryPlan> plan;
      double bound = 0.0;
    };
    std::unordered_map<uint64_t, PairInfo> pairs;
    const size_t twig_begin = pool.size();
    for (uint32_t d = 0; d < num_docs; ++d) {
      const CorpusDocument& entry = *selected[d];
      auto it = pairs.find(entry.pair->pair_id);
      if (it == pairs.end()) {
        PairInfo info;
        auto compiled = entry.pair->compiler->Compile((*run.twigs)[t]);
        if (compiled.ok()) {
          info.plan = *compiled;
          info.bound = info.plan->AnswerUpperBound(run.item_k);
        } else {
          info.status = compiled.status();
        }
        it = pairs.emplace(entry.pair->pair_id, std::move(info)).first;
      }
      const PairInfo& info = it->second;
      if (!info.status.ok()) {
        // A compile failure fails EVERY document of its pair, so the
        // first name-order document of the first failing pair is exactly
        // the exhaustive path's first failure.
        race.compile_doc = d;
        race.compile_status = info.status;
        race.failed.store(true, std::memory_order_relaxed);
        pool.resize(twig_begin);
        for (uint32_t e = 0; e < num_docs; ++e) {
          pool.push_back(PoolItem{t, e, kProvenEmptyBound, kNoCachedBound});
        }
        break;
      }
      double bound = info.bound;
      double cached_bound = kNoCachedBound;
      // Once the budget expires the bound phase stops doing real work
      // too: no probes (they walk the document's annotation), just the
      // free pair/cached bounds — the pool still gets every item so the
      // claims can classify and certify all of them.
      const bool probe =
          run.probe_bounds &&
          (run.budget == nullptr || !run.budget->ExpiredNow());
      // An entry without an annotation keeps its pair bound: it is
      // unevaluable, and the driver fails it when it is claimed.
      const bool has_doc = entry.annotated != nullptr;
      if (has_doc && run.bound_cache != nullptr) {
        const ItemKeyRef key = ItemKeyFor(run, t, entry);
        if (const auto cached = run.bound_cache->Lookup(key)) {
          cached_bound = *cached;
        } else if (probe) {
          cached_bound =
              info.plan->DocumentAnswerUpperBound(run.item_k, *entry.annotated);
          run.bound_cache->Insert(key, cached_bound);
        }
        bound = std::min(bound, cached_bound);
      } else if (has_doc && probe) {
        bound = std::min(bound, info.plan->DocumentAnswerUpperBound(
                                    run.item_k, *entry.annotated));
      }
      pool.push_back(PoolItem{t, d, bound, cached_bound});
    }
  }
  return pool;
}

/// One claim of the loop: applies the rules in order — failed twig,
/// threshold prune, budget poll, inline result-cache hit — and evaluates
/// what is left, recruiting the run's helpers first (`unclaimed` items
/// remain behind this one; `*recruited` reports whether this claim did).
Disposition ClaimItem(const BoundedRun& run, const PoolItem& pi,
                      size_t unclaimed, ClaimSlot& slot, bool* recruited) {
  TwigRace& race = *run.races[pi.twig];
  if (race.failed.load(std::memory_order_acquire)) {
    return Disposition::kFailed;
  }
  // The threshold is read lock-free: it only ever rises (and starts below
  // every bound), so a prune decided against a concurrently rising value
  // stays sound. No tail cut: a later item may belong to a different
  // twig whose threshold it still beats.
  if (Prunable(pi, race)) return Disposition::kPruned;
  if (run.budget != nullptr && run.budget->ExpiredNow()) {
    // The budget's casualty: never evaluated, so its bound is charged to
    // the twig's certified residual.
    ChargeResidual(pi, &race);
    return Disposition::kDeadlineSkipped;
  }
  const CorpusDocument& entry = *(*run.selected)[pi.doc];
  if (run.results != nullptr && entry.annotated != nullptr) {
    // A hit is folded here and never evaluated: its answers raise the
    // threshold before the next claim, and it spends no evaluation
    // credit. A miss is left uncounted — the driver's own probe counts it.
    const ItemKeyRef key = ItemKeyFor(run, pi.twig, entry);
    if (const auto hit = run.results->Lookup(key, /*count_miss=*/false)) {
      FoldItem(run, pi, key, hit);
      ++slot.tally.result_hits;
      return Disposition::kEvaluated;
    }
  }
  *recruited = slot.Recruit(unclaimed);
  DriverRequest request;
  request.pair = entry.pair.get();
  request.doc = entry.annotated.get();
  request.twig = &(*run.twigs)[pi.twig];
  request.options = run.executor->options().ptq;
  request.use_block_tree = run.executor->options().use_block_tree;
  request.cache = run.results;
  request.epoch = ItemEpoch(run, entry);
  request.upper_bound = pi.bound;
  request.cancel_threshold = &race.threshold;  // races its own twig only
  request.budget = run.budget;
  DriverCounters counters;
  const auto result = slot.ExecuteRanked(request, &counters);
  if (result.ok()) {
    FoldItem(run, pi, ItemKeyFor(run, pi.twig, entry), *result);
    return Disposition::kEvaluated;
  }
  if (result.status().IsCancelled()) {
    // A threshold abort is exact: the (monotone) threshold proves the
    // item's every answer out of the top-k, now and forever. ANY other
    // cancellation — budget expiry, an injected fault — leaves the item's
    // contribution unknown, so its bound is charged to the twig's
    // certified residual. Re-checking the threshold here (instead of
    // trusting why the driver cancelled) keeps the certificate sound even
    // under spurious cancels.
    if (!Prunable(pi, race)) ChargeResidual(pi, &race);
    return counters.cancelled_in_kernel ? Disposition::kAbortedInKernel
                                        : Disposition::kAborted;
  }
  {
    std::lock_guard<std::mutex> lock(race.mu);
    if (pi.doc < race.eval_doc) {
      race.eval_doc = pi.doc;
      race.eval_status = result.status();
    }
  }
  race.failed.store(true, std::memory_order_release);
  return Disposition::kFailed;
}

/// Counts one item's disposition into `r`.
void CountDisposition(Disposition d, CorpusRunReport* r) {
  ++r->items_total;
  switch (d) {
    case Disposition::kEvaluated:
      ++r->items_evaluated;
      break;
    case Disposition::kPruned:
      ++r->items_pruned;
      break;
    case Disposition::kAbortedInKernel:
      ++r->items_aborted_in_kernel;
      ++r->items_aborted;
      break;
    case Disposition::kAborted:
      ++r->items_aborted;
      break;
    case Disposition::kDeadlineSkipped:
      ++r->items_deadline_skipped;
      ++r->items_aborted;
      break;
    case Disposition::kFailed:
      ++r->items_failed;
      break;
  }
}

#ifndef NDEBUG
/// Re-evaluates every document the scheduler skipped into `ranked` and
/// returns true; false when any re-evaluation errors (e.g. an armed
/// fault-injection site — certification needs ground truth it then cannot
/// establish, which is not a scheduling bug).
bool FillSkippedForCertificate(const std::vector<const CorpusDocument*>& docs,
                               const std::string& twig,
                               const BatchExecutorOptions& exec_options,
                               std::vector<RankedAnswersPtr>* ranked) {
  for (size_t d = 0; d < docs.size(); ++d) {
    if ((*ranked)[d] != nullptr) continue;
    DriverRequest request;
    request.pair = docs[d]->pair.get();
    request.doc = docs[d]->annotated.get();
    request.twig = &twig;
    request.options = exec_options.ptq;
    request.use_block_tree = exec_options.use_block_tree;
    auto result = ExecutionDriver::ExecuteRanked(request);
    if (!result.ok()) return false;
    (*ranked)[d] = RankedAnswersOf(*result);
  }
  return true;
}

/// Debug-build exactness certificate: evaluate every document the
/// scheduler skipped (no caches, no cancellation), merge over ALL
/// documents, and require the result to be identical to what the bounded
/// run returned. Pruning must never be observable in the answers.
void CertifyBoundedTopK(const std::vector<const CorpusDocument*>& docs,
                        const std::string& twig, int merge_k,
                        const BatchExecutorOptions& exec_options,
                        std::vector<RankedAnswersPtr> ranked,
                        const std::vector<CorpusAnswer>& got) {
  if (!FillSkippedForCertificate(docs, twig, exec_options, &ranked)) {
    return;
  }
  const std::vector<CorpusAnswer> want = MergeTopK(docs, ranked, merge_k);
  bool equal = want.size() == got.size();
  for (size_t i = 0; equal && i < want.size(); ++i) {
    equal = want[i].document == got[i].document &&
            want[i].probability == got[i].probability &&
            want[i].matches == got[i].matches;
  }
  if (!equal) {
    std::fprintf(stderr,
                 "bounded corpus top-k certificate FAILED for twig '%s': "
                 "bounded run returned %zu answers, exhaustive merge %zu\n",
                 twig.c_str(), got.size(), want.size());
  }
  assert(equal && "bound-driven pruning changed the corpus top-k");
}

/// Debug-build ANYTIME certificate for a budget-truncated twig: every
/// answer the exhaustive merge ranks in the true top-k but missing from
/// the partial result must have probability <= the reported residual
/// bound, and every answer present must be a real answer with its exact
/// probability.
void CertifyAnytimeTopK(const std::vector<const CorpusDocument*>& docs,
                        const std::string& twig, int merge_k,
                        const BatchExecutorOptions& exec_options,
                        std::vector<RankedAnswersPtr> ranked,
                        const std::vector<CorpusAnswer>& got,
                        double residual_bound) {
  if (!FillSkippedForCertificate(docs, twig, exec_options, &ranked)) {
    return;
  }
  const std::vector<CorpusAnswer> want = MergeTopK(docs, ranked, merge_k);
  bool sound = true;
  for (const CorpusAnswer& w : want) {
    bool present = false;
    for (const CorpusAnswer& g : got) {
      if (g.document == w.document && g.probability == w.probability &&
          g.matches == w.matches) {
        present = true;
        break;
      }
    }
    if (!present && w.probability > residual_bound + kAnswerBoundSlack) {
      sound = false;
      break;
    }
  }
  // Presence check: partial answers come from fully evaluated documents,
  // so each must appear verbatim in the exhaustive merge over ALL
  // answers (merge with no k cap to see past the true top-k).
  const std::vector<CorpusAnswer> all = MergeTopK(docs, ranked, /*k=*/0);
  for (const CorpusAnswer& g : got) {
    bool real = false;
    for (const CorpusAnswer& a : all) {
      if (g.document == a.document && g.probability == a.probability &&
          g.matches == a.matches) {
        real = true;
        break;
      }
    }
    if (!real) {
      sound = false;
      break;
    }
  }
  if (!sound) {
    std::fprintf(stderr,
                 "anytime corpus top-k certificate FAILED for twig '%s': "
                 "partial result (%zu answers, residual %.17g) does not "
                 "cover the true top-%d\n",
                 twig.c_str(), got.size(), residual_bound, merge_k);
  }
  assert(sound && "budget truncation broke the anytime certificate");
}
#endif  // NDEBUG

/// Builds the per-twig answer slots from the (now quiescent) races, in
/// input-twig order: failed twigs report their status (compile beats
/// evaluation, smallest index each), the rest k-way-merge their ranked
/// per-document lists to the global top-k. Debug builds certify each
/// merged twig against an exhaustive re-evaluation of every skipped
/// document.
void FinalizeAnswers(const BoundedRun& run, int merge_k,
                     OnDeadline on_deadline,
                     std::vector<Result<CorpusQueryResult>>* answers) {
  const size_t num_twigs = run.twigs->size();
  answers->reserve(answers->size() + num_twigs);
  for (size_t t = 0; t < num_twigs; ++t) {
    const TwigRace& race = *run.races[t];
    // Compile failures take precedence: the claims never evaluate a twig
    // whose bound phase failed, so only they are guaranteed observable
    // under every schedule.
    if (race.compile_doc < race.num_docs) {
      answers->push_back(race.compile_status);
      continue;
    }
    if (race.eval_doc < race.num_docs) {
      answers->push_back(race.eval_status);
      continue;
    }
    const bool inexact = race.inexact.load(std::memory_order_acquire);
    const double residual =
        race.residual_bound.load(std::memory_order_relaxed);
    if (inexact && on_deadline == OnDeadline::kFail) {
      answers->push_back(Status::DeadlineExceeded(
          "corpus run budget expired before twig '" + (*run.twigs)[t] +
          "' finished (a certified partial top-k with residual bound " +
          std::to_string(residual) +
          " is available under OnDeadline::kReturnPartialCertified)"));
      continue;
    }
    CorpusQueryResult merged;
    merged.exact = !inexact;
    merged.max_residual_bound = inexact ? residual : 0.0;
    merged.documents_evaluated = static_cast<int>(race.num_docs);
    merged.documents_pruned = race.docs_pruned;
    merged.documents_aborted = race.docs_aborted;
    merged.truncated_embeddings =
        race.truncated.load(std::memory_order_relaxed);
    // Skipped documents left null lists in `ranked`; MergeTopK ignores
    // them, and their absence is exactly what the bounds proved sound.
    merged.answers = MergeTopK(*run.selected, race.ranked, merge_k);
#ifndef NDEBUG
    if (merged.exact) {
      CertifyBoundedTopK(*run.selected, (*run.twigs)[t], merge_k,
                         run.executor->options(), race.ranked,
                         merged.answers);
    } else {
      CertifyAnytimeTopK(*run.selected, (*run.twigs)[t], merge_k,
                         run.executor->options(), race.ranked, merged.answers,
                         merged.max_residual_bound);
    }
#endif
    answers->push_back(std::move(merged));
  }
}

}  // namespace

CorpusBatchResponse RunBoundedCorpus(
    const BatchQueryExecutor& executor, BoundCache* bound_cache,
    const std::vector<const CorpusDocument*>& selected, size_t num_shards,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) {
  Timer timer;
  BoundedRun run;
  run.executor = &executor;
  run.bound_cache = bound_cache;
  run.selected = &selected;
  run.twigs = &twigs;
  run.twig_hashes.reserve(twigs.size());
  for (const std::string& twig : twigs) {
    run.twig_hashes.push_back(HashTwig(twig));
  }
  run.cache = cache;
  run.results = cache != nullptr ? cache->results : nullptr;
  run.probe_bounds = options.probe_bounds;
  run.item_k = executor.options().ptq.top_k;
  // ONE budget for the whole run, polled by every claim, the driver and
  // the kernels, so the merged certificate is global. A budget exists
  // only when the caller set one: a null run.budget IS the unbudgeted
  // exact path.
  std::optional<RunBudget> budget;
  if (RunBudget::Limited(options.deadline, options.max_evaluations)) {
    budget.emplace(options.deadline, options.max_evaluations);
    run.budget = &*budget;
  }
  run.races.reserve(twigs.size());
  for (size_t t = 0; t < twigs.size(); ++t) {
    run.races.push_back(
        std::make_unique<TwigRace>(options.top_k, selected.size()));
  }

  std::vector<PoolItem> pool = BuildPool(run);
  // Highest bound first; stable_sort keeps the (twig order, name order)
  // append order for equal bounds, so the claim order is deterministic.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const PoolItem& a, const PoolItem& b) {
                     return a.bound > b.bound;
                   });

  CorpusBatchResponse response;
  std::vector<Disposition> dispositions(pool.size());
  size_t recruiter = pool.size();  // the claim that recruited, if any
  std::atomic<size_t> cursor{0};
  executor.RunClaimLoop(
      [&](ClaimSlot& slot) {
        for (;;) {
          const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= pool.size()) return;
          bool recruited = false;
          dispositions[i] =
              ClaimItem(run, pool[i], pool.size() - i - 1, slot, &recruited);
          if (recruited) recruiter = i;
        }
      },
      &response.report);
  // Cumulative cache state, sampled here: a run whose items all hit
  // inline never reaches the driver. The compiler sample is the first
  // pool item's pair's.
  if (!pool.empty()) {
    response.report.compiler =
        selected[pool.front().doc]->pair->compiler->Stats();
  }
  if (run.results != nullptr) {
    response.report.result_cache = run.results->Stats();
  }

  // Every report is read off the one disposition record.
  CorpusRunReport& total = response.corpus;
  std::vector<uint32_t> shard_of;
  if (num_shards > 1) {
    response.shard_reports.resize(num_shards);
    shard_of.reserve(selected.size());
    for (const CorpusDocument* entry : selected) {
      shard_of.push_back(
          static_cast<uint32_t>(ShardForDocument(entry->name, num_shards)));
    }
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    const Disposition d = dispositions[i];
    CountDisposition(d, &total);
    if (num_shards > 1) {
      CountDisposition(d, &response.shard_reports[shard_of[pool[i].doc]]);
    }
    TwigRace& race = *run.races[pool[i].twig];
    race.docs_pruned += d == Disposition::kPruned ? 1 : 0;
    race.docs_aborted += d == Disposition::kAborted ||
                                 d == Disposition::kAbortedInKernel ||
                                 d == Disposition::kDeadlineSkipped
                             ? 1
                             : 0;
  }
  if (recruiter < pool.size()) {
    total.dispatches = 1;
    if (num_shards > 1) {
      response.shard_reports[shard_of[pool[recruiter].doc]].dispatches = 1;
    }
  }
  total.elapsed_ns = timer.ElapsedNanos();
  // A shard entry's time is the run's, apportioned by its share of the
  // items (the last entry takes the rounding), so entries still sum to
  // the aggregate.
  int64_t items_before = 0;
  int64_t given = 0;
  for (size_t s = 0; s < response.shard_reports.size(); ++s) {
    CorpusRunReport& shard = response.shard_reports[s];
    items_before += shard.items_total;
    const int64_t upto =
        s + 1 == response.shard_reports.size()
            ? total.elapsed_ns
            : total.elapsed_ns * items_before / std::max(total.items_total, 1);
    shard.elapsed_ns = upto - given;
    given = upto;
  }
  FinalizeAnswers(run, options.top_k, options.on_deadline, &response.answers);
  return response;
}

}  // namespace uxm

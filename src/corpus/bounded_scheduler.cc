#include "corpus/bounded_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "plan/driver.h"

namespace uxm {

namespace {

/// Smallest wave: below this the per-dispatch pool overhead dominates
/// any pruning win. The effective wave is max(threads, kMinWaveItems) so
/// every worker has an item even on wide pools.
constexpr size_t kMinWaveItems = 8;

/// BoundedPoolItem::cached_bound of an item without a BoundCache value.
constexpr double kNoCachedBound = std::numeric_limits<double>::infinity();

/// HashTwig of every twig of the batch, computed once per phase.
std::vector<size_t> HashTwigs(const std::vector<std::string>& twigs) {
  std::vector<size_t> hashes;
  hashes.reserve(twigs.size());
  for (const std::string& twig : twigs) hashes.push_back(HashTwig(twig));
  return hashes;
}

/// The key of item (twig `t`, `entry`) — the driver's ResultKey, used for
/// both its result-cache probe and its BoundCache entry. A corpus item's
/// epoch is its document's; an unstamped (0) document inherits the run's
/// cache epoch, as BatchQueryExecutor items do.
ItemKeyRef ItemKeyFor(const BoundedRunContext& ctx, size_t t,
                      size_t twig_hash, const CorpusDocument& entry) {
  const uint64_t epoch = entry.epoch != 0 || ctx.cache == nullptr
                             ? entry.epoch
                             : ctx.cache->epoch;
  return ResultKey((*ctx.twigs)[t], twig_hash, *entry.annotated, epoch,
                   ctx.item_k, ctx.executor->options().use_block_tree,
                   *entry.pair);
}

/// Folds one finished item — an inline result-cache hit or a fresh
/// evaluation — into its twig's race. Nothing is copied: the race keeps a
/// share of the entry's ranked list, and the tracker reads only
/// probabilities, stopping at the first answer that cannot enter the
/// top-k.
void FoldItem(const BoundedRunContext& ctx, const BoundedPoolItem& pi,
              const ItemKeyRef& key,
              const std::shared_ptr<const RankedPtqResult>& entry) {
  TwigRace& race = *(*ctx.races)[pi.twig];
  const std::vector<MappingAnswer>& ranked = entry->ranked;
  const double best =
      ranked.empty() ? kProvenEmptyBound : ranked.front().probability;
  // Realized bound: evaluation is deterministic in this key, so the best
  // ranked answer is an exact bound for any later run under the same key
  // — usually far tighter than the probe it refines — and an empty ranked
  // list proves the item empty, so later runs prune it unevaluated.
  // Insert keeps the min, so a stored bound that is already no larger
  // (every warm hit's) needs no insert.
  if (ctx.bound_cache != nullptr && !(pi.cached_bound <= best)) {
    ctx.bound_cache->Insert(key, best);
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

}  // namespace

void RaiseThreshold(std::atomic<double>* threshold, double value) {
  double current = threshold->load(std::memory_order_relaxed);
  while (value > current &&
         !threshold->compare_exchange_weak(current, value,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

void AccumulateBatchReport(const BatchRunReport& wave, BatchRunReport* total) {
  total->num_threads = wave.num_threads;
  if (total->items_per_thread.size() != wave.items_per_thread.size()) {
    total->items_per_thread.assign(wave.items_per_thread.size(), 0);
  }
  for (size_t i = 0; i < wave.items_per_thread.size(); ++i) {
    total->items_per_thread[i] += wave.items_per_thread[i];
  }
  total->query_cache_hits += wave.query_cache_hits;
  total->result_cache_hits += wave.result_cache_hits;
  total->result_cache_misses += wave.result_cache_misses;
  total->mappings_pruned += wave.mappings_pruned;
  total->items_aborted += wave.items_aborted;
  total->items_aborted_in_kernel += wave.items_aborted_in_kernel;
  total->compiler = wave.compiler;
  total->result_cache = wave.result_cache;
}

void BuildBoundedPool(const BoundedRunContext& ctx,
                      const std::vector<uint32_t>& docs,
                      std::vector<BoundedPoolItem>* pool,
                      BoundedScheduleResult* out) {
  const std::vector<const CorpusDocument*>& selected = *ctx.selected;
  const size_t num_twigs = ctx.twigs->size();
  const std::vector<size_t> twig_hashes = HashTwigs(*ctx.twigs);
  std::vector<BoundedPoolItem> twig_items;
  for (size_t t = 0; t < num_twigs; ++t) {
    TwigRace& race = *(*ctx.races)[t];
    // Compile once per distinct pair: the schema-level bound is
    // document-free and shared by all of the pair's documents.
    struct PairInfo {
      Status status = Status::OK();
      std::shared_ptr<const QueryPlan> plan;
      double bound = 0.0;
    };
    std::unordered_map<uint64_t, PairInfo> pairs;
    twig_items.clear();
    bool compile_failed = false;
    for (const uint32_t d : docs) {
      const CorpusDocument& entry = *selected[d];
      auto it = pairs.find(entry.pair->pair_id);
      if (it == pairs.end()) {
        PairInfo info;
        auto compiled = entry.pair->compiler->Compile((*ctx.twigs)[t]);
        if (compiled.ok()) {
          info.plan = *compiled;
          info.bound = info.plan->AnswerUpperBound(ctx.item_k);
        } else {
          info.status = compiled.status();
        }
        it = pairs.emplace(entry.pair->pair_id, std::move(info)).first;
      }
      const PairInfo& info = it->second;
      if (!info.status.ok()) {
        // A compile failure fails EVERY document of its pair, so the
        // first name-order document of the first failing pair is exactly
        // the exhaustive path's first failure. Compilation is
        // deterministic per (twig, pair), so every scheduler whose slice
        // holds such a document records the same status, and the min
        // over slices is the min over all documents — shard-count
        // independent.
        {
          std::lock_guard<std::mutex> lock(race.mu);
          if (d < race.compile_doc) {
            race.compile_doc = d;
            race.compile_status = info.status;
          }
        }
        race.failed.store(true, std::memory_order_release);
        // The twig's whole slice is charged to items_failed and none of
        // it enters the pool, keeping the run-report invariant.
        out->corpus.items_failed += static_cast<int>(docs.size());
        compile_failed = true;
        break;
      }
      double bound = info.bound;
      double cached_bound = kNoCachedBound;
      // Once the budget expires the bound phase stops doing real work
      // too: no probes (they walk the document's annotation), just the
      // free pair/cached bounds — the pool still gets every item so the
      // drain can classify and certify all of them.
      const bool probe =
          ctx.probe_bounds &&
          (ctx.budget == nullptr || !ctx.budget->ExpiredNow());
      // An entry without an annotation keeps its pair bound: it is
      // unevaluable, and the driver fails it when it is dispatched.
      const bool has_doc = entry.annotated != nullptr;
      if (has_doc && ctx.bound_cache != nullptr) {
        const ItemKeyRef key = ItemKeyFor(ctx, t, twig_hashes[t], entry);
        if (const auto cached = ctx.bound_cache->Lookup(key)) {
          cached_bound = *cached;
        } else if (probe) {
          cached_bound =
              info.plan->DocumentAnswerUpperBound(ctx.item_k, *entry.annotated);
          ctx.bound_cache->Insert(key, cached_bound);
        }
        bound = std::min(bound, cached_bound);
      } else if (has_doc && probe) {
        bound = std::min(bound, info.plan->DocumentAnswerUpperBound(
                                    ctx.item_k, *entry.annotated));
      }
      twig_items.push_back(
          BoundedPoolItem{static_cast<uint32_t>(t), d, bound, cached_bound});
    }
    if (!compile_failed) {
      pool->insert(pool->end(), twig_items.begin(), twig_items.end());
    }
  }
}

void RunBoundedWaves(const BoundedRunContext& ctx,
                     std::vector<BoundedPoolItem> pool,
                     BoundedScheduleResult* out) {
  const std::vector<const CorpusDocument*>& selected = *ctx.selected;
  const size_t wave_size =
      std::max<size_t>(static_cast<size_t>(ctx.executor->num_threads()),
                       kMinWaveItems);
  ResultCache* results = ctx.cache != nullptr ? ctx.cache->results : nullptr;
  const std::vector<size_t> twig_hashes = HashTwigs(*ctx.twigs);
  out->report.num_threads = ctx.executor->num_threads();
  out->report.items_per_thread.assign(
      static_cast<size_t>(ctx.executor->num_threads()), 0);

  // Highest bound first; stable_sort keeps the caller's (twig order,
  // name order) for equal bounds, so a single-twig batch dispatches in
  // exactly the order the per-twig scheduler used.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const BoundedPoolItem& a, const BoundedPoolItem& b) {
                     return a.bound > b.bound;
                   });

  size_t pos = 0;
  while (pos < pool.size()) {
    // Budget poll between waves: once the run expires, nothing further
    // is dispatched — the leftover pool drains into the residual
    // classification below, and items already in flight are cancelled by
    // the driver/kernel polls of the same shared budget.
    if (ctx.budget != nullptr && ctx.budget->ExpiredNow()) break;
    // Collect the next wave of misses, folding hits inline as they come.
    // The threshold is read lock-free: it only ever rises (and starts
    // below every bound), so a prune decision made against a concurrently
    // rising value stays sound.
    std::vector<BatchQueryItem> items;
    std::vector<BoundedPoolItem> wave;  // wave index -> pool item
    while (pos < pool.size() && items.size() < wave_size) {
      if (ctx.budget != nullptr && ctx.budget->expired()) break;
      const BoundedPoolItem pi = pool[pos++];
      TwigRace& race = *(*ctx.races)[pi.twig];
      if (race.failed.load(std::memory_order_acquire)) {
        // The twig failed (here or in a concurrent scheduler); its
        // leftover items are never dispatched, but still accounted.
        ++out->corpus.items_failed;
        continue;
      }
      if (pi.bound + kAnswerBoundSlack <
          race.threshold.load(std::memory_order_acquire)) {
        // Provably outside this twig's top-k. (No tail cut: a later
        // pool item may belong to a different twig whose threshold it
        // still beats.)
        race.docs_pruned.fetch_add(1, std::memory_order_relaxed);
        ++out->corpus.items_pruned;
        continue;
      }
      const CorpusDocument& entry = *selected[pi.doc];
      if (results != nullptr && entry.annotated != nullptr) {
        // A hit is folded here and never dispatched: its answers raise
        // the threshold before the next item's prune check, and it
        // spends no evaluation credit. A miss is left uncounted — the
        // driver's own probe counts it when the item runs.
        const ItemKeyRef key =
            ItemKeyFor(ctx, pi.twig, twig_hashes[pi.twig], entry);
        if (const auto hit = results->Lookup(key, /*count_miss=*/false)) {
          FoldItem(ctx, pi, key, hit);
          ++out->report.result_cache_hits;
          ++out->corpus.items_evaluated;
          continue;
        }
      }
      BatchQueryItem item;
      item.doc = entry.annotated.get();
      item.twig = (*ctx.twigs)[pi.twig];
      item.epoch = entry.epoch;
      item.pair = entry.pair;
      item.priority = pi.bound;
      item.cancel_threshold = &race.threshold;  // races its own twig only
      items.push_back(std::move(item));
      wave.push_back(pi);
    }
    if (items.empty()) continue;

    // Workers fold each finished item into its twig's race immediately,
    // so thresholds rise mid-wave and later items of this very wave — or
    // of any concurrent scheduler's wave — can abort, at the driver's
    // checks or inside the kernel.
    BatchRunControl control;
    control.budget = ctx.budget;
    control.on_item_done =
        [&](size_t i, const Result<std::shared_ptr<const RankedPtqResult>>& r) {
          if (!r.ok()) return;
          const BoundedPoolItem& pi = wave[i];
          FoldItem(ctx, pi,
                   ItemKeyFor(ctx, pi.twig, twig_hashes[pi.twig],
                              *selected[pi.doc]),
                   *r);
        };

    BatchRunReport wave_report;
    const auto evaluated = ctx.executor->RunRanked(
        items, /*default_pair=*/nullptr, &wave_report, ctx.cache, &control);
    AccumulateBatchReport(wave_report, &out->report);
    ++out->corpus.dispatches;

    for (size_t i = 0; i < evaluated.size(); ++i) {
      const BoundedPoolItem pi = wave[i];
      TwigRace& race = *(*ctx.races)[pi.twig];
      const Status& status = evaluated[i].status();
      if (status.ok()) {
        ++out->corpus.items_evaluated;
      } else if (status.IsCancelled()) {
        race.docs_aborted.fetch_add(1, std::memory_order_relaxed);
        ++out->corpus.items_aborted;
        // Classify the abort. A threshold abort is exact: the (monotone)
        // threshold proves the item's every answer out of the top-k, now
        // and forever. ANY other cancellation — budget expiry, an
        // injected fault — leaves the item's contribution unknown, so
        // its bound is charged to the twig's certified residual and the
        // twig's result becomes a partial. Checking the threshold here
        // (instead of trusting why the driver cancelled) keeps the
        // certificate sound even under spurious cancels.
        if (!(pi.bound + kAnswerBoundSlack <
              race.threshold.load(std::memory_order_acquire))) {
          RaiseThreshold(&race.residual_bound, pi.bound);
          race.inexact.store(true, std::memory_order_release);
        }
      } else {
        ++out->corpus.items_failed;
        {
          std::lock_guard<std::mutex> lock(race.mu);
          if (pi.doc < race.eval_doc) {
            race.eval_doc = pi.doc;
            race.eval_status = status;
          }
        }
        race.failed.store(true, std::memory_order_release);
      }
    }
  }
  // Budget expiry drain: everything still in the pool was never
  // dispatched. Items the (final, monotone) threshold already proves out
  // of the top-k are exact prunes as usual; the rest are the budget's
  // casualties — counted as aborted + deadline-skipped, their bounds
  // charged to the certified residual.
  for (; pos < pool.size(); ++pos) {
    const BoundedPoolItem pi = pool[pos];
    TwigRace& race = *(*ctx.races)[pi.twig];
    if (race.failed.load(std::memory_order_acquire)) {
      ++out->corpus.items_failed;
      continue;
    }
    if (pi.bound + kAnswerBoundSlack <
        race.threshold.load(std::memory_order_acquire)) {
      race.docs_pruned.fetch_add(1, std::memory_order_relaxed);
      ++out->corpus.items_pruned;
      continue;
    }
    race.docs_aborted.fetch_add(1, std::memory_order_relaxed);
    ++out->corpus.items_aborted;
    ++out->corpus.items_deadline_skipped;
    RaiseThreshold(&race.residual_bound, pi.bound);
    race.inexact.store(true, std::memory_order_release);
  }
  out->corpus.items_aborted_in_kernel = out->report.items_aborted_in_kernel;
  // Cumulative cache state, sampled here rather than by the executor: a
  // run whose items all hit inline never dispatches. The compiler sample
  // is the first pool item's pair's, as the executor samples its first
  // item's.
  if (!pool.empty()) {
    out->report.compiler = selected[pool.front().doc]->pair->compiler->Stats();
  }
  if (results != nullptr) out->report.result_cache = results->Stats();
}

void FinalizeBoundedAnswers(const BoundedRunContext& ctx, int merge_k,
                            std::vector<Result<CorpusQueryResult>>* answers) {
  const size_t num_twigs = ctx.twigs->size();
  answers->reserve(answers->size() + num_twigs);
  for (size_t t = 0; t < num_twigs; ++t) {
    TwigRace& race = *(*ctx.races)[t];
    // Compile failures take precedence: a scheduler never dispatches a
    // twig whose bound phase failed, so only they are guaranteed
    // observable under every schedule.
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
    if (inexact && ctx.on_deadline == OnDeadline::kFail) {
      answers->push_back(Status::DeadlineExceeded(
          "corpus run budget expired before twig '" + (*ctx.twigs)[t] +
          "' finished (a certified partial top-k with residual bound " +
          std::to_string(residual) +
          " is available under OnDeadline::kReturnPartialCertified)"));
      continue;
    }
    CorpusQueryResult merged;
    merged.exact = !inexact;
    merged.max_residual_bound = inexact ? residual : 0.0;
    merged.documents_evaluated = static_cast<int>(race.num_docs);
    merged.documents_pruned = race.docs_pruned.load(std::memory_order_relaxed);
    merged.documents_aborted =
        race.docs_aborted.load(std::memory_order_relaxed);
    merged.truncated_embeddings =
        race.truncated.load(std::memory_order_relaxed);
    // Skipped documents left null lists in `ranked`; MergeTopK ignores
    // them, and their absence is exactly what the bounds proved sound.
    merged.answers = MergeTopK(*ctx.selected, race.ranked, merge_k);
#ifndef NDEBUG
    if (merged.exact) {
      CertifyBoundedTopK(*ctx.selected, (*ctx.twigs)[t], merge_k,
                         ctx.executor->options(), race.ranked,
                         merged.answers);
    } else {
      CertifyAnytimeTopK(*ctx.selected, (*ctx.twigs)[t], merge_k,
                         ctx.executor->options(), race.ranked, merged.answers,
                         merged.max_residual_bound);
    }
#endif
    answers->push_back(std::move(merged));
  }
}

}  // namespace uxm

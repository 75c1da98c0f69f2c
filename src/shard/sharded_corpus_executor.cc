#include "shard/sharded_corpus_executor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "corpus/bounded_scheduler.h"
#include "corpus/run_budget.h"
#include "exec/thread_pool.h"

namespace uxm {

namespace {

/// Resolves a CorpusQueryOptions::documents filter against a name-sorted
/// corpus snapshot: empty selects the whole corpus, unknown names fail
/// with NotFound, duplicates collapse, and the result is name-sorted, so
/// the fan-out (and the merge tie order) is independent of filter order.
Result<std::vector<const CorpusDocument*>> ResolveCorpusSelection(
    const CorpusSnapshot& corpus, const std::vector<std::string>& documents) {
  std::vector<const CorpusDocument*> selected;
  if (documents.empty()) {
    selected.reserve(corpus.size());
    for (const CorpusDocument& entry : corpus) selected.push_back(&entry);
    return selected;
  }
  for (const std::string& name : documents) {
    const auto it = std::lower_bound(
        corpus.begin(), corpus.end(), name,
        [](const CorpusDocument& e, const std::string& n) {
          return e.name < n;
        });
    if (it == corpus.end() || it->name != name) {
      return Status::NotFound("no corpus document named '" + name + "'");
    }
    if (std::find(selected.begin(), selected.end(), &*it) == selected.end()) {
      selected.push_back(&*it);
    }
  }
  std::sort(selected.begin(), selected.end(),
            [](const CorpusDocument* a, const CorpusDocument* b) {
              return a->name < b->name;
            });
  return selected;
}

/// The evaluate-everything fan-out: one executor dispatch over all
/// twig x document items, then a per-twig merge of their ranked lists.
/// It ignores budgets by design: it is the oracle the differential and
/// certificate tests compare bounded and budgeted runs against.
CorpusBatchResponse RunExhaustive(
    const BatchQueryExecutor& executor,
    const std::vector<const CorpusDocument*>& selected,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) {
  Timer timer;
  const size_t num_docs = selected.size();
  std::vector<BatchQueryItem> items;
  items.reserve(twigs.size() * num_docs);
  for (const std::string& twig : twigs) {
    for (const CorpusDocument* entry : selected) {
      BatchQueryItem item;
      item.doc = entry->annotated.get();
      item.twig = twig;
      item.epoch = entry->epoch;
      item.pair = entry->pair;  // evaluate under the document's own pair
      items.push_back(std::move(item));
    }
  }

  CorpusBatchResponse response;
  const std::vector<Result<std::shared_ptr<const RankedPtqResult>>> evaluated =
      executor.RunRanked(items, /*default_pair=*/nullptr, &response.report,
                         cache);
  response.corpus.items_total = static_cast<int>(items.size());
  response.corpus.items_evaluated = static_cast<int>(items.size());
  response.corpus.dispatches = items.empty() ? 0 : 1;

  response.answers.reserve(twigs.size());
  for (size_t q = 0; q < twigs.size(); ++q) {
    Status failed = Status::OK();
    CorpusQueryResult merged;
    merged.documents_evaluated = static_cast<int>(num_docs);
    std::vector<RankedAnswersPtr> ranked(num_docs);
    for (size_t d = 0; d < num_docs; ++d) {
      const auto& r = evaluated[q * num_docs + d];
      if (!r.ok()) {
        failed = r.status();
        break;
      }
      merged.truncated_embeddings |= (*r)->result.truncated_embeddings;
      ranked[d] = RankedAnswersOf(*r);
    }
    if (!failed.ok()) {
      response.answers.push_back(std::move(failed));
      continue;
    }
    merged.answers = MergeTopK(selected, ranked, options.top_k);
    response.answers.push_back(std::move(merged));
  }
  response.corpus.elapsed_ns = timer.ElapsedNanos();
  return response;
}

/// Field-by-field sum of one shard's disposition counts into the global
/// report (every field of CorpusRunReport is additive).
void AccumulateCorpusReport(const CorpusRunReport& shard,
                            CorpusRunReport* total) {
  total->items_total += shard.items_total;
  total->items_evaluated += shard.items_evaluated;
  total->items_pruned += shard.items_pruned;
  total->items_aborted += shard.items_aborted;
  total->items_aborted_in_kernel += shard.items_aborted_in_kernel;
  total->items_failed += shard.items_failed;
  total->dispatches += shard.dispatches;
  total->items_deadline_skipped += shard.items_deadline_skipped;
  // Summed too: the aggregate is total scheduler-nanoseconds across
  // shards (see CorpusRunReport::elapsed_ns), keeping "shard reports sum
  // to the aggregate" true for every field.
  total->elapsed_ns += shard.elapsed_ns;
}

/// Recomputes response->exact from its answer slots (see
/// CorpusBatchResponse::exact).
void StampResponseExact(CorpusBatchResponse* response) {
  response->exact = true;
  for (const Result<CorpusQueryResult>& slot : response->answers) {
    const bool truncated =
        slot.ok() ? !slot->exact : slot.status().IsDeadlineExceeded();
    if (truncated) {
      response->exact = false;
      return;
    }
  }
}

}  // namespace

Result<CorpusBatchResponse> ShardedCorpusExecutor::Run(
    const ShardedCorpusSnapshot& corpus, const std::vector<std::string>& twigs,
    const CorpusQueryOptions& options, const BatchCacheContext* cache) const {
  if (executor_ == nullptr) {
    return Status::Internal("corpus executor has no batch executor");
  }
  std::vector<const CorpusDocument*> selected;
  UXM_ASSIGN_OR_RETURN(selected,
                       ResolveCorpusSelection(*corpus.all, options.documents));
  // Bounding needs a finite answer budget to beat: with top_k <= 0 every
  // answer is part of the result and nothing can ever be pruned.
  if (!options.bounded || options.top_k <= 0) {
    return RunExhaustive(*executor_, selected, twigs, options, cache);
  }
  const size_t num_shards = std::max<size_t>(corpus.shards.size(), 1);
  const size_t num_docs = selected.size();
  const size_t num_twigs = twigs.size();

  // Scatter: slice the (name-sorted) selection by the stable name hash.
  // Slices inherit the global order, so each shard's pool append order —
  // and with it every bound tie-break — is deterministic.
  std::vector<std::vector<uint32_t>> slices(num_shards);
  for (size_t d = 0; d < num_docs; ++d) {
    slices[ShardForDocument(selected[d]->name, num_shards)].push_back(
        static_cast<uint32_t>(d));
  }

  // One race per twig, shared by every shard: each twig keeps its OWN
  // top-k and threshold even though all twigs share one dispatch pool,
  // and every shard folds into the same tracker and prunes/cancels
  // against the same threshold.
  std::vector<std::unique_ptr<TwigRace>> races;
  races.reserve(num_twigs);
  for (size_t t = 0; t < num_twigs; ++t) {
    races.push_back(std::make_unique<TwigRace>(options.top_k, num_docs));
  }

  BoundedRunContext ctx;
  ctx.executor = executor_;
  ctx.bound_cache = bound_cache_;
  ctx.selected = &selected;
  ctx.twigs = &twigs;
  ctx.cache = cache;
  ctx.probe_bounds = options.probe_bounds;
  // Corpus items carry no per-item top_k, so every evaluation runs under
  // the executor's base PtqOptions — the k the per-item bound must match.
  ctx.item_k = executor_->options().ptq.top_k;
  ctx.races = &races;
  // ONE budget for the whole run: every shard scheduler (and every
  // driver/kernel poll under it) observes the same expiry, so the merged
  // result's certificate is global — no shard can keep burning the
  // deadline after another shard exhausted it. A budget exists only when
  // the caller set one: a null ctx.budget IS the unbudgeted exact path.
  std::optional<RunBudget> budget;
  if (RunBudget::Limited(options.deadline, options.max_evaluations)) {
    budget.emplace(options.deadline, options.max_evaluations);
    ctx.budget = &*budget;
  }
  ctx.on_deadline = options.on_deadline;

  // Per-shard scheduler results; each scheduler writes only its own slot.
  std::vector<BoundedScheduleResult> shard_results(num_shards);
  auto run_shard = [&](size_t s) {
    Timer shard_timer;
    const std::vector<uint32_t>& slice = slices[s];
    BoundedScheduleResult& result = shard_results[s];
    result.corpus.items_total = static_cast<int>(num_twigs * slice.size());
    std::vector<BoundedPoolItem> pool;
    pool.reserve(num_twigs * slice.size());
    BuildBoundedPool(ctx, slice, &pool, &result);
    RunBoundedWaves(ctx, std::move(pool), &result);
    result.corpus.elapsed_ns = shard_timer.ElapsedNanos();
  };
  {
    // The caller thread runs the first non-empty slice itself, so a lone
    // slice (always, at S = 1) spawns no thread at all.
    ScopedThreads drivers;
    size_t inline_shard = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (slices[s].empty()) continue;
      if (inline_shard == num_shards) {
        inline_shard = s;
      } else {
        drivers.Spawn([&run_shard, s] { run_shard(s); });
      }
    }
    if (inline_shard < num_shards) run_shard(inline_shard);
  }

  // Aggregate: the global report is the field-by-field sum of the
  // per-shard reports, so the items_total invariant that holds per
  // scheduler holds in aggregate too.
  CorpusBatchResponse response;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!slices[s].empty()) {
      AccumulateBatchReport(shard_results[s].report, &response.report);
    }
    AccumulateCorpusReport(shard_results[s].corpus, &response.corpus);
  }
  if (num_shards > 1) {
    response.shard_reports.reserve(num_shards);
    for (const BoundedScheduleResult& result : shard_results) {
      response.shard_reports.push_back(result.corpus);
    }
  }
  FinalizeBoundedAnswers(ctx, options.top_k, &response.answers);
  StampResponseExact(&response);
  return response;
}

}  // namespace uxm

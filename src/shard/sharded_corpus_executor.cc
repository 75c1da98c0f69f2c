#include "shard/sharded_corpus_executor.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "corpus/bounded_scheduler.h"
#include "corpus/run_budget.h"
#include "exec/thread_pool.h"

namespace uxm {

namespace {

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

}  // namespace

Result<CorpusBatchResponse> ShardedCorpusExecutor::Run(
    const ShardedCorpusSnapshot& corpus, const std::vector<std::string>& twigs,
    const CorpusQueryOptions& options, const BatchCacheContext* cache) const {
  if (executor_ == nullptr) {
    return Status::Internal("sharded corpus executor has no batch executor");
  }
  const size_t num_shards = corpus.shards.size();
  const CorpusExecutor single(executor_, bound_cache_);
  if (num_shards <= 1 || !options.bounded || options.top_k <= 0) {
    return single.Run(*corpus.all, twigs, options, cache);
  }
  std::vector<const CorpusDocument*> selected;
  UXM_ASSIGN_OR_RETURN(selected,
                       ResolveCorpusSelection(*corpus.all, options.documents));
  if (selected.size() < 2) {
    return single.Run(*corpus.all, twigs, options, cache);
  }
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

  // One shared race per twig: every shard folds into the same tracker
  // and prunes/cancels against the same threshold.
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
  ctx.item_k = executor_->options().ptq.top_k;
  ctx.races = &races;
  // ONE budget for the whole scatter-gather: every shard scheduler (and
  // every driver/kernel poll under it) observes the same expiry, so the
  // merged result's certificate is global — no shard can keep burning
  // the deadline after another shard exhausted it.
  std::optional<RunBudget> budget;
  if (RunBudget::Limited(options.deadline, options.max_evaluations)) {
    budget.emplace(options.deadline, options.max_evaluations);
    ctx.budget = &*budget;
  }
  ctx.on_deadline = options.on_deadline;

  // Per-shard scheduler results; each driver writes only its own slot.
  std::vector<BoundedScheduleResult> shard_results(num_shards);
  {
    ScopedThreads drivers;
    for (size_t s = 0; s < num_shards; ++s) {
      if (slices[s].empty()) continue;
      drivers.Spawn([&, s] {
        Timer shard_timer;
        const std::vector<uint32_t>& slice = slices[s];
        BoundedScheduleResult& result = shard_results[s];
        result.corpus.items_total =
            static_cast<int>(num_twigs * slice.size());
        std::vector<BoundedPoolItem> pool;
        pool.reserve(num_twigs * slice.size());
        BuildBoundedPool(ctx, slice, &pool, &result);
        RunBoundedWaves(ctx, std::move(pool), &result);
        result.corpus.elapsed_ns = shard_timer.ElapsedNanos();
      });
    }
  }

  // Aggregate: the global report is the field-by-field sum of the
  // per-shard reports, so the items_total invariant that holds per
  // scheduler holds in aggregate too.
  CorpusBatchResponse response;
  response.shard_reports.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (!slices[s].empty()) {
      AccumulateBatchReport(shard_results[s].report, &response.report);
    }
    AccumulateCorpusReport(shard_results[s].corpus, &response.corpus);
    response.shard_reports.push_back(shard_results[s].corpus);
  }
  FinalizeBoundedAnswers(ctx, options.top_k, &response.answers);
  StampResponseExact(&response);
  return response;
}

}  // namespace uxm

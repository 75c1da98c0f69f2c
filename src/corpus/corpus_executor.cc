#include "corpus/corpus_executor.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "corpus/bounded_scheduler.h"
#include "corpus/run_budget.h"
#include "plan/driver.h"

namespace uxm {

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

namespace {

/// The one corpus answer order (see AnswerBefore), over answer fields.
bool RanksBefore(double pa, const std::string& da,
                 const std::vector<DocNodeId>& ma, double pb,
                 const std::string& db, const std::vector<DocNodeId>& mb) {
  if (pa != pb) return pa > pb;
  if (da != db) return da < db;
  return ma < mb;
}

/// One merge candidate: the head of a per-document list, viewed in place.
struct MergeHead {
  size_t list = 0;
  size_t pos = 0;
  double probability = 0.0;
  const std::string* document = nullptr;
  const std::vector<DocNodeId>* matches = nullptr;
};

/// The k-way merge behind both MergeTopK forms. Each of the `num_lists`
/// lists is sorted by AnswerBefore; `head_at(list, pos, &head)` views the
/// pos-th answer of `list`, returning false past its end. Only the
/// returned answers are copied out.
template <typename HeadAt>
std::vector<CorpusAnswer> MergeLists(size_t num_lists, size_t total, int k,
                                     HeadAt head_at) {
  auto worse = [](const MergeHead& x, const MergeHead& y) {
    return RanksBefore(y.probability, *y.document, *y.matches,
                       x.probability, *x.document, *x.matches);
  };
  std::priority_queue<MergeHead, std::vector<MergeHead>, decltype(worse)>
      heap(worse);
  MergeHead head;
  for (size_t l = 0; l < num_lists; ++l) {
    if (head_at(l, 0, &head)) heap.push(head);
  }
  const size_t want = k > 0 ? std::min<size_t>(static_cast<size_t>(k), total)
                            : total;
  std::vector<CorpusAnswer> merged;
  merged.reserve(want);
  while (!heap.empty() && merged.size() < want) {
    const MergeHead top = heap.top();
    heap.pop();
    merged.push_back(
        CorpusAnswer{*top.document, top.probability, *top.matches});
    if (head_at(top.list, top.pos + 1, &head)) heap.push(head);
  }
  return merged;
}

}  // namespace

bool AnswerBefore(const CorpusAnswer& a, const CorpusAnswer& b) {
  return RanksBefore(a.probability, a.document, a.matches, b.probability,
                     b.document, b.matches);
}

std::vector<CorpusAnswer> CollapseForCorpus(const std::string& name,
                                            const PtqResult& result) {
  std::vector<CorpusAnswer> out;
  for (MappingAnswer& a : result.RankedMatchSets()) {
    out.push_back(CorpusAnswer{name, a.probability, std::move(a.matches)});
  }
  return out;
}

std::vector<CorpusAnswer> MergeTopK(
    const std::vector<std::vector<CorpusAnswer>>& per_document, int k) {
  size_t total = 0;
  for (const auto& list : per_document) total += list.size();
  return MergeLists(
      per_document.size(), total, k,
      [&](size_t l, size_t pos, MergeHead* head) {
        if (pos >= per_document[l].size()) return false;
        const CorpusAnswer& a = per_document[l][pos];
        *head = MergeHead{l, pos, a.probability, &a.document, &a.matches};
        return true;
      });
}

std::vector<CorpusAnswer> MergeTopK(
    const std::vector<const CorpusDocument*>& docs,
    const std::vector<RankedAnswersPtr>& ranked, int k) {
  size_t total = 0;
  for (const RankedAnswersPtr& list : ranked) {
    if (list != nullptr) total += list->size();
  }
  return MergeLists(
      ranked.size(), total, k, [&](size_t l, size_t pos, MergeHead* head) {
        if (ranked[l] == nullptr || pos >= ranked[l]->size()) return false;
        const MappingAnswer& a = (*ranked[l])[pos];
        *head = MergeHead{l, pos, a.probability, &docs[l]->name, &a.matches};
        return true;
      });
}

Result<std::vector<const CorpusDocument*>> ResolveCorpusSelection(
    const CorpusSnapshot& corpus, const std::vector<std::string>& documents) {
  // The snapshot is name-sorted, so the fan-out (and the merge tie
  // order) is independent of filter order.
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

Result<CorpusBatchResponse> CorpusExecutor::Run(
    const CorpusSnapshot& corpus, const std::vector<std::string>& twigs,
    const CorpusQueryOptions& options, const BatchCacheContext* cache) const {
  if (executor_ == nullptr) {
    return Status::Internal("corpus executor has no batch executor");
  }
  std::vector<const CorpusDocument*> selected;
  UXM_ASSIGN_OR_RETURN(selected,
                       ResolveCorpusSelection(corpus, options.documents));
  // Bounding needs a finite answer budget to beat: with top_k <= 0 every
  // answer is part of the result and nothing can ever be pruned.
  if (options.bounded && options.top_k > 0) {
    return RunBounded(selected, twigs, options, cache);
  }
  return RunExhaustive(selected, twigs, options, cache);
}

Result<CorpusBatchResponse> CorpusExecutor::RunExhaustive(
    const std::vector<const CorpusDocument*>& selected,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) const {
  // The exhaustive path ignores budgets by design: it is the oracle the
  // differential/certificate tests compare budgeted runs against.
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
      executor_->RunRanked(items, /*default_pair=*/nullptr, &response.report,
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

Result<CorpusBatchResponse> CorpusExecutor::RunBounded(
    const std::vector<const CorpusDocument*>& selected,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) const {
  const size_t num_docs = selected.size();
  const size_t num_twigs = twigs.size();

  // Per-twig race state: each twig keeps its OWN top-k and threshold
  // even though all twigs share one dispatch pool — an item only ever
  // prunes/cancels against its own twig's k-th best answer.
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
  // A budget exists only when the caller set one: a null ctx.budget IS
  // the unbudgeted exact path, byte for byte.
  std::optional<RunBudget> budget;
  if (RunBudget::Limited(options.deadline, options.max_evaluations)) {
    budget.emplace(options.deadline, options.max_evaluations);
    ctx.budget = &*budget;
  }
  ctx.on_deadline = options.on_deadline;

  // ONE scheduler over the whole selection: bound phase, then the wave
  // loop (the sharded path runs the same two calls once per shard, over
  // disjoint slices, against shared races).
  Timer timer;
  std::vector<uint32_t> docs(num_docs);
  std::iota(docs.begin(), docs.end(), 0u);
  std::vector<BoundedPoolItem> pool;
  pool.reserve(num_twigs * num_docs);
  BoundedScheduleResult sched;
  BuildBoundedPool(ctx, docs, &pool, &sched);
  RunBoundedWaves(ctx, std::move(pool), &sched);
  sched.corpus.elapsed_ns = timer.ElapsedNanos();

  CorpusBatchResponse response;
  response.report = std::move(sched.report);
  response.corpus = sched.corpus;
  response.corpus.items_total = static_cast<int>(num_twigs * num_docs);
  FinalizeBoundedAnswers(ctx, options.top_k, &response.answers);
  StampResponseExact(&response);
  return response;
}

}  // namespace uxm

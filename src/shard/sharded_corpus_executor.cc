#include "shard/sharded_corpus_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "corpus/bounded_scheduler.h"

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
  CorpusBatchResponse response =
      RunBoundedCorpus(*executor_, bound_cache_, selected,
                       corpus.shards.size(), twigs, options, cache);
  StampResponseExact(&response);
  return response;
}

}  // namespace uxm

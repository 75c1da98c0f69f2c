#include "corpus/corpus_executor.h"

#include <algorithm>
#include <utility>

namespace uxm {

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

}  // namespace uxm

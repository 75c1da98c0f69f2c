// Probabilistic Twig Query evaluation (§IV). A PTQ is a twig pattern on
// the target schema T, answered against a document conforming to the
// source schema S, once per possible mapping:
//
//   R = { (R_i, p_i) : m_i relevant }        (Definition 4)
//
// Three evaluators are provided:
//   - EvaluateBasic        — Algorithm 3 (query_basic): rewrite + match
//     independently per mapping;
//   - EvaluateWithBlockTree — Algorithm 4 (twig_query_tree): subqueries
//     anchored at block-tree nodes are evaluated once per c-block and the
//     result replicated to every mapping sharing the block; elsewhere the
//     query is split and recombined with stack-based structural joins;
//   - top-k PTQ            — §IV-C: restrict to the k most probable
//     relevant mappings before evaluation.
//
// Query-to-schema resolution: a twig's labels may occur at several places
// in T (e.g. ContactName in Figure 1), so the query is first *embedded*
// into the target schema — every assignment of schema elements to query
// nodes consistent with the labels and axes. Each embedding is rewritten
// per mapping; answers are unioned. This mirrors the constraint-based
// rewriting of [2] on our tree-shaped schemas.
#ifndef UXM_QUERY_PTQ_H_
#define UXM_QUERY_PTQ_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blocktree/block_tree.h"
#include "common/status.h"
#include "mapping/possible_mapping.h"
#include "query/annotated_document.h"
#include "query/twig_matcher.h"
#include "query/twig_query.h"

namespace uxm {

struct FlatPairIndex;

/// \brief Answer for one mapping: (R_i, p_i).
///
/// R_i is reported under output-node semantics: the distinct document
/// nodes that bind the query's distinguished node in some full match of
/// the (rewritten) twig — exactly the intro example's answers, where
/// //IP//ICN returns the ContactName instances "Cathy"/"Bob"/"Alice".
struct MappingAnswer {
  MappingId mapping = -1;
  double probability = 0.0;
  std::vector<DocNodeId> matches;  ///< R_i, sorted, distinct; may be empty.
};

/// \brief Full PTQ result.
struct PtqResult {
  std::vector<MappingAnswer> answers;

  /// True if the PtqOptions::max_embeddings cap cut the schema-embedding
  /// enumeration short, i.e. the answers may be incomplete. Capped answers
  /// were previously indistinguishable from complete ones.
  bool truncated_embeddings = false;

  /// Groups answers with identical match sets and sums their
  /// probabilities (the collapsed view of the intro example, where
  /// {("Bob", .3), ("Alice", .2)} aggregates over mappings).
  std::vector<MappingAnswer> CollapseByMatches() const;

  /// One document's answers in corpus form: CollapseByMatches without
  /// the empty match sets (an answer with no witness node is not a match
  /// of the document), ranked by probability descending, then match list
  /// ascending — the corpus answer order (AnswerBefore in
  /// corpus/corpus_executor.h) restricted to one document. Each entry's
  /// `mapping` is the first mapping that produced its match set.
  std::vector<MappingAnswer> RankedMatchSets() const;

  /// Total probability mass of answers with at least one match.
  double NonEmptyMass() const;
};

/// \brief A PtqResult together with its ranked match sets
/// (PtqResult::RankedMatchSets), built once and immutable afterwards.
///
/// This is the result cache's entry and the corpus scheduler's unit of
/// work: a cache hit hands out the shared object itself, so the corpus
/// path folds and merges `ranked` without copying or re-collapsing the
/// answers, and only the public single-document calls copy `result`.
struct RankedPtqResult {
  explicit RankedPtqResult(PtqResult r)
      : result(std::move(r)), ranked(result.RankedMatchSets()) {}

  PtqResult result;
  std::vector<MappingAnswer> ranked;
};

/// \brief Evaluation options.
struct PtqOptions {
  /// k > 0 enables top-k PTQ: only the k most probable relevant mappings
  /// are evaluated (§IV-C). 0 evaluates all relevant mappings.
  int top_k = 0;
  /// Cap on schema embeddings considered per query (0 = unlimited).
  size_t max_embeddings = 256;
  TwigMatchOptions match;
};

/// \brief Embeds a twig query into a schema: every assignment of schema
/// elements to query nodes consistent with labels and axes. Exposed for
/// testing. `embedding[i]` is the schema element for query node i.
/// When `truncated` is non-null it is set to whether the max_embeddings
/// cap cut the enumeration short (one extra embedding is probed to tell),
/// and a warning is logged when it did.
std::vector<std::vector<SchemaNodeId>> EmbedQueryInSchema(
    const TwigQuery& query, const Schema& schema, size_t max_embeddings,
    bool* truncated = nullptr);

/// \brief The per-mapping relevance predicate: true iff some embedding
/// is fully mapped under `m`. The ONE definition shared by
/// FilterRelevantMappings and the plan layer's lazy memo
/// (plan/query_plan.h) — their exact agreement is what makes
/// early-termination top-k exact.
bool IsMappingRelevant(
    const PossibleMapping& m,
    const std::vector<std::vector<SchemaNodeId>>& embeddings);

/// \brief Stable-sorts `ids` most-probable-first; equal probabilities
/// keep their prior order (so ascending-id input ties by ascending id).
/// The ONE §IV-C ranking order, shared by FilterRelevantMappings and
/// MappingOrder::Build.
void SortByProbabilityDescending(const PossibleMappingSet& mappings,
                                 std::vector<MappingId>* ids);

/// \brief filter_mappings (+ the §IV-C top-k restriction): ids of the
/// mappings under which some embedding is fully mapped, ascending.
/// top_k > 0 keeps only the k most probable of them (stable order), still
/// returned ascending by id.
std::vector<MappingId> FilterRelevantMappings(
    const PossibleMappingSet& mappings,
    const std::vector<std::vector<SchemaNodeId>>& embeddings, int top_k);

/// \brief PTQ evaluator over a fixed (mapping set, document) pair.
///
/// A convenience front-end for callers that hold build-time products
/// (PossibleMappingSet + BlockTree) rather than a prepared pair: it
/// flattens them into a FlatPairIndex on first use (memoized per tree)
/// and evaluates through the one flat kernel (query/flat_kernel.h) that
/// also serves the execution driver — there is no second evaluation
/// code path to drift from it.
class PtqEvaluator {
 public:
  /// `mappings` relates S and T; `doc` must be annotated against S.
  PtqEvaluator(const PossibleMappingSet* mappings,
               const AnnotatedDocument* doc)
      : mappings_(mappings), doc_(doc) {}

  /// Algorithm 3 (query_basic).
  Result<PtqResult> EvaluateBasic(const TwigQuery& query,
                                  const PtqOptions& options = {}) const;

  /// Algorithm 4 (twig_query_tree). `tree` must be built from the same
  /// mapping set. Produces exactly the same answers as EvaluateBasic.
  Result<PtqResult> EvaluateWithBlockTree(const TwigQuery& query,
                                          const BlockTree& tree,
                                          const PtqOptions& options = {}) const;

  /// Algorithm 3 with precompiled inputs: `embeddings` and `relevant` as
  /// produced by EmbedQueryInSchema / FilterRelevantMappings (or a
  /// plan/query_plan.h QueryPlan), so nothing is re-derived per call.
  /// `truncated` is carried into the result's truncated_embeddings.
  Result<PtqResult> EvaluateBasicPrepared(
      const TwigQuery& query,
      const std::vector<std::vector<SchemaNodeId>>& embeddings,
      const std::vector<MappingId>& relevant, bool truncated,
      const PtqOptions& options = {}) const;

  /// Algorithm 4 with precompiled inputs (see EvaluateBasicPrepared).
  Result<PtqResult> EvaluateTreePrepared(
      const TwigQuery& query,
      const std::vector<std::vector<SchemaNodeId>>& embeddings,
      const std::vector<MappingId>& relevant, bool truncated,
      const BlockTree& tree, const PtqOptions& options = {}) const;

  /// filter_mappings (+ the top-k restriction of §IV-C): delegates to
  /// FilterRelevantMappings — ids ascending, restricted to the k most
  /// probable when top_k > 0.
  std::vector<MappingId> FilterMappings(
      const TwigQuery& query,
      const std::vector<std::vector<SchemaNodeId>>& embeddings,
      int top_k) const;

 private:
  /// The memoized flat index for `tree` (null = Algorithm-3-only index),
  /// built on first use. Benches call Evaluate* in hot loops with one
  /// evaluator and one tree, so flattening must not recur per call.
  std::shared_ptr<const FlatPairIndex> FlatIndexFor(
      const BlockTree* tree) const;

  const PossibleMappingSet* mappings_;
  const AnnotatedDocument* doc_;

  mutable std::mutex flat_mu_;
  mutable std::vector<std::pair<const BlockTree*,
                                std::shared_ptr<const FlatPairIndex>>>
      flat_cache_;
};

}  // namespace uxm

#endif  // UXM_QUERY_PTQ_H_

// The planning layer: everything derivable from (twig text, prepared
// schema pair) is compiled ONCE into a QueryPlan and shared across every
// request and worker that asks the same twig of the same pair.
//
// A plan is deliberately lazier than the old CompiledQuery: parsing and
// schema embedding still happen eagerly at compile time, but per-mapping
// relevance (the paper's filter_mappings) is memoized on demand. That is
// what makes early-termination top-k (§IV-C) a real latency win instead
// of a post-hoc cut: the top-k answer set is exactly the first k relevant
// mappings in descending-probability order, so a top-k request walks the
// pair's shared MappingOrder, tests relevance lazily, and stops the
// moment k relevant mappings are found — every remaining work unit has a
// probability no larger than the last consumed one (the order's
// residual_after[] is the proof: it bounds everything still unseen), so
// none of them can displace a selected mapping. The enumeration is exact,
// not approximate; tests/differential_test.cc sweeps pruned vs unpruned.
#ifndef UXM_PLAN_QUERY_PLAN_H_
#define UXM_PLAN_QUERY_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mapping/flat_mapping_table.h"
#include "mapping/possible_mapping.h"
#include "query/twig_query.h"

namespace uxm {

class AnnotatedDocument;

/// \brief The schema embeddings of one twig: every assignment of target
/// elements to query nodes (EmbedQueryInSchema), plus whether the
/// max_embeddings cap truncated the enumeration. Embeddings depend only
/// on (twig text, target schema, cap) — NOT on the mapping set — so one
/// QueryEmbeddings is shared by every plan compiled for any pair over the
/// same target schema (see cache/embedding_cache.h).
struct QueryEmbeddings {
  std::vector<std::vector<SchemaNodeId>> assignments;
  bool truncated = false;
};

/// Absolute slack added to every answer upper bound before it is used to
/// prune or cancel work: a collapsed answer's probability and the bound
/// are floating-point sums of the same mapping probabilities in different
/// orders, so they may disagree by rounding noise (~1e-16 per term). The
/// slack is many orders of magnitude above that noise and many below any
/// real probability gap, keeping bound-driven pruning exact.
inline constexpr double kAnswerBoundSlack = 1e-9;

/// The answer upper bound of a (twig, document) item that provably
/// produces no answer at all: no selected relevant mapping may match the
/// document (QueryPlan::DocumentAnswerUpperBound), or an evaluation under
/// the same key returned an empty ranked list. It sits strictly below
/// every threshold the corpus scheduler compares bounds with — a race
/// starts at -1.0 before it holds k answers (corpus/bounded_scheduler.h)
/// — so the ordinary `bound + kAnswerBoundSlack < threshold` prune drops
/// such an item before it is dispatched, even while its twig's top-k is
/// still unfilled. It is a proof of emptiness, not a small probability: a
/// probability-0 mapping that may match keeps an item at bound 0.
inline constexpr double kProvenEmptyBound = -2.0;

/// \brief The shared consumption order over one mapping set: work units
/// in descending-probability order (stable — ties break by ascending
/// mapping id, matching the stable sort in FilterRelevantMappings), each
/// carrying the upper bound on what the remaining enumeration can still
/// contribute. Built once per prepared pair and shared by every plan.
struct MappingOrder {
  /// by_probability[i] is the i-th most probable mapping id.
  std::vector<MappingId> by_probability;
  /// residual_after[i] = total probability mass of by_probability[i+1..):
  /// once i work units are consumed, no unseen mapping has probability
  /// above by_probability[i]'s and the whole tail holds at most
  /// residual_after[i] mass.
  std::vector<double> residual_after;

  static MappingOrder Build(const PossibleMappingSet& mappings);
  /// Same order over the flat probability column (identical output: the
  /// column holds the same doubles, and both overloads use the one stable
  /// sort). This is the overload the plan layer uses, so loaded snapshot
  /// pairs — which have no PossibleMappingSet — plan like built ones.
  static MappingOrder Build(const FlatMappingTable& table);
};

/// \brief What one top-k selection did (early-termination accounting).
struct PlanSelectStats {
  int selected = 0;       ///< Mappings chosen for evaluation.
  int scanned = 0;        ///< Work units consumed before the stop.
  int skipped = 0;        ///< Units never consumed (pure pruning win).
  double residual_mass = 0.0;  ///< Probability mass provably prunable
                               ///< at the stop point.
};

/// \brief A compiled (twig, pair) plan. Immutable to callers; the
/// relevance memo inside is thread-safe interior state, so one plan is
/// shared by every worker thread via shared_ptr<const QueryPlan>.
class QueryPlan {
 public:
  /// `table` (the pair's flat mapping matrix — all the plan layer needs:
  /// relevance rows + the probability column) and `order` must describe
  /// the same pair and outlive the plan (the QueryCompiler that builds
  /// plans owns/shares both). `embeddings` is shared, not copied — pairs
  /// over one target schema hand the same QueryEmbeddings to all their
  /// plans.
  QueryPlan(const FlatMappingTable* table,
            std::shared_ptr<const MappingOrder> order, TwigQuery query,
            std::shared_ptr<const QueryEmbeddings> embeddings);

  ~QueryPlan();

  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  const TwigQuery& query() const { return query_; }
  const std::vector<std::vector<SchemaNodeId>>& embeddings() const {
    return embeddings_->assignments;
  }
  /// True if the max_embeddings cap cut the embedding enumeration short;
  /// propagated into every PtqResult produced from this plan.
  bool truncated_embeddings() const { return embeddings_->truncated; }
  const MappingOrder& order() const { return *order_; }

  /// Memoized per-mapping relevance: true iff some embedding is fully
  /// mapped under mapping `mid`. First call per mapping computes; later
  /// calls are one atomic load.
  bool IsRelevant(MappingId mid) const;

  /// Every relevant mapping id, ascending — the unpruned §IV answer set.
  /// Computed (and memoized) on first use, so pure top-k traffic never
  /// pays the full |M| relevance scan.
  const std::vector<MappingId>& AllRelevant() const;

  /// The §IV-C top-k restriction with early termination (see file
  /// comment). Returns ascending ids, exactly equal to
  /// FilterRelevantMappings(mappings, embeddings(), top_k); top_k <= 0
  /// returns AllRelevant(). `stats` (optional) reports the work skipped.
  std::vector<MappingId> SelectForTopK(int top_k,
                                       PlanSelectStats* stats = nullptr) const;

  /// \brief Upper bound on the probability of ANY single answer an
  /// evaluation of this plan with `top_k` can produce (§IV-C bounds
  /// lifted to the answer level).
  ///
  /// A collapsed answer aggregates the probabilities of the selected
  /// relevant mappings sharing one match set, so it is bounded by the
  /// total mass of the selection itself: for top_k <= 0 that is the full
  /// relevant mass, for top_k > 0 the mass of the k most probable
  /// relevant mappings. Both are computed from the pair's shared
  /// MappingOrder prefix (walking units most-probable-first and summing
  /// the relevant ones), reusing the same lazy relevance memo the
  /// selection uses — schema-level work, independent of any document,
  /// which is what makes the bound cheap for a corpus: N documents under
  /// one pair share one bound computation. Callers comparing answers
  /// against the bound must allow kAnswerBoundSlack for float noise.
  double AnswerUpperBound(int top_k) const;

  /// \brief Document-sensitive refinement of AnswerUpperBound: an upper
  /// bound on the probability of any single answer an evaluation of this
  /// plan with `top_k` can produce AGAINST `doc` specifically.
  ///
  /// Walks the same selection prefix AnswerUpperBound walks (the first
  /// top_k relevant mappings in descending-probability order; all of
  /// them for top_k <= 0) but only sums mappings that MAY match the
  /// document: a mapping counts iff some embedding binds every query
  /// node to a mapped source element with at least one instance in the
  /// document's annotation satisfying the node's value predicate. For
  /// any other mapping, some query node's candidate list is empty under
  /// every embedding, the emptiness propagates to the twig root through
  /// the kernels' child-containment checks, and the mapping contributes
  /// no output — so dropping its mass keeps the bound sound. This is a
  /// cheap existence probe over the annotation's per-element instance
  /// lists (no region joins, no match enumeration); the corpus
  /// scheduler uses min(AnswerUpperBound, this) per (twig, document)
  /// and caches it registry-wide (cache/bound_cache.h), which is what
  /// lets homogeneous single-pair corpora prune at all. Always
  /// <= AnswerUpperBound(top_k) up to float noise; callers must allow
  /// kAnswerBoundSlack as usual.
  ///
  /// Returns kProvenEmptyBound iff NO selected relevant mapping may match
  /// (including a twig with no relevant mappings at all) — decided by the
  /// structure above, never by the summed mass, so a document that only
  /// probability-0 mappings may match gets 0.0, not the sentinel.
  ///
  /// The probe is compiled once per (plan, top_k), on first use, into
  /// flat arrays: the selection prefix's distinct (query node, source
  /// element) atoms, the distinct embedding conjunctions over them, and
  /// per prefix mapping the id of its set of conjunctions (stored only
  /// when the prefix has more than one set), plus the prefix's whole
  /// mass. A call checks each atom against `doc` at most once, allocates
  /// nothing (beyond a fallback for probes with hundreds of atoms), and
  /// sums the may-match probabilities in prefix order — the same doubles
  /// in the same order as a direct walk, so the bound is bit-identical to
  /// one.
  double DocumentAnswerUpperBound(int top_k,
                                  const AnnotatedDocument& doc) const;

  /// Full relevance computations performed so far (test/bench probe:
  /// early-terminated selections keep this below |M|).
  uint64_t relevance_checks() const {
    return relevance_checks_.load(std::memory_order_relaxed);
  }

 private:
  /// One compiled document probe (see DocumentAnswerUpperBound).
  struct DocumentProbe;

  bool ComputeRelevance(MappingId mid) const;
  /// The compiled probe for `top_k` (<= 0 is one key), compiled on first
  /// use.
  const DocumentProbe& ProbeFor(int top_k) const;
  std::unique_ptr<DocumentProbe> CompileProbe(int top_k) const;

  const FlatMappingTable* table_;
  std::shared_ptr<const MappingOrder> order_;
  TwigQuery query_;
  std::shared_ptr<const QueryEmbeddings> embeddings_;

  /// Tri-state memo: 0 unknown, 1 irrelevant, 2 relevant. Races are
  /// benign — every thread computes the same value.
  mutable std::unique_ptr<std::atomic<uint8_t>[]> memo_;
  mutable std::atomic<uint64_t> relevance_checks_{0};
  mutable std::once_flag all_relevant_once_;
  mutable std::vector<MappingId> all_relevant_;
  /// Compiled probes, one per top_k asked, as a push-front list: readers
  /// walk it lock-free; compilation is serialized by probe_mu_. Owned by
  /// the plan (freed in the destructor).
  mutable std::atomic<const DocumentProbe*> probes_{nullptr};
  mutable std::mutex probe_mu_;
};

}  // namespace uxm

#endif  // UXM_PLAN_QUERY_PLAN_H_

// Composite schema matcher standing in for COMA++. Combines linguistic
// (name/token/thesaurus) similarity with one of two structural strategies,
// mirroring the matcher options recorded in Table II:
//  - kContext  ("c"): blend in root-to-node *path* similarity, so elements
//    in similar positions score higher;
//  - kFragment ("f"): blend in local *fragment* similarity (children and
//    descendant-leaf name sets), so elements with similar subtrees score
//    higher.
// Candidate selection uses an absolute threshold plus a relative dominance
// criterion, which keeps the matching sparse, as real COMA++ output is.
#ifndef UXM_MATCHING_MATCHER_H_
#define UXM_MATCHING_MATCHER_H_

#include <vector>

#include "matching/matching.h"
#include "matching/similarity.h"
#include "xml/schema.h"

namespace uxm {

/// Structural strategy, the "opt" column of Table II.
enum class MatcherStrategy {
  kContext,   ///< Path-aware ("c").
  kFragment,  ///< Subtree-aware ("f").
};

/// \brief Tuning knobs for the composite matcher.
struct MatcherOptions {
  MatcherStrategy strategy = MatcherStrategy::kContext;
  /// Weight of the linguistic component; (1 - weight) goes to structure.
  double name_weight = 0.62;
  /// Minimum combined score for a pair to be reported at all.
  double threshold = 0.55;
  /// A pair is kept only if its score is at least `relative_factor` times
  /// the best score seen for *either* endpoint. Controls sparsity.
  double relative_factor = 0.90;
  /// Cap on correspondences per target element (0 = unlimited).
  int max_per_target = 4;
  /// Cap on correspondences per source element (0 = unlimited); keeps the
  /// matching sparse in both directions, as COMA++ output is.
  int max_per_source = 4;
};

/// \brief Composite matcher producing a SchemaMatching from two schemas.
///
/// Deterministic: same schemas + options => same matching. The thesaurus
/// is injected so domains other than e-commerce can supply their own.
///
/// All string work happens once per schema: each Match interns canonical
/// tokens to uint32 ids, keeps every node's token sets as sorted id arrays
/// and every distinct name's trigrams as packed codes, and scores each
/// distinct (source name, target name) pair once. Match holds no shared
/// mutable state, so concurrent calls are safe.
class ComposedMatcher {
 public:
  explicit ComposedMatcher(MatcherOptions options = {},
                           Thesaurus thesaurus = Thesaurus::CommerceDefault())
      : options_(options), thesaurus_(std::move(thesaurus)) {}

  /// Runs the match. `source` and `target` must be finalized and must
  /// outlive the returned matching.
  Result<SchemaMatching> Match(const Schema& source,
                               const Schema& target) const;

  const MatcherOptions& options() const { return options_; }

 private:
  MatcherOptions options_;
  Thesaurus thesaurus_;
};

}  // namespace uxm

#endif  // UXM_MATCHING_MATCHER_H_

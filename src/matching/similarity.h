// String and token-set similarity measures used by the composite matcher:
// normalized Levenshtein, character trigram Dice coefficient, token-set
// Jaccard with synonym expansion. All return values in [0, 1].
//
// Each measure has an id-based core over features computed once per name
// (interned token ids, packed trigram codes) and a string wrapper that
// builds those features on the spot; the matcher calls the cores, so both
// entry points share one implementation.
#ifndef UXM_MATCHING_SIMILARITY_H_
#define UXM_MATCHING_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace uxm {

/// Levenshtein edit distance between two strings. A non-null `scratch`
/// holds the DP rows across calls (no allocation once warm).
int LevenshteinDistance(std::string_view a, std::string_view b,
                        std::vector<int>* scratch = nullptr);

/// 1 - dist/max(|a|,|b|); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b,
                             std::vector<int>* scratch = nullptr);

/// \brief A lower-cased name with its distinct character trigrams, each
/// packed into the low 24 bits of a uint32 and kept sorted.
struct Trigrams {
  std::string lower;
  std::vector<uint32_t> codes;  ///< Empty when |lower| < 3.
};

Trigrams MakeTrigrams(std::string_view name);

/// Dice coefficient over the trigram sets. Names shorter than 3 characters
/// fall back to exact-match (1) / containment (0.5) / 0.
double TrigramSimilarity(const Trigrams& a, const Trigrams& b);

/// Dice coefficient over character trigrams of the lower-cased inputs.
/// Strings shorter than 3 characters fall back to exact-match/containment.
double TrigramSimilarity(std::string_view a, std::string_view b);

/// \brief Domain synonym table (the matcher's auxiliary information source,
/// standing in for COMA++'s name thesaurus).
class Thesaurus {
 public:
  Thesaurus() = default;

  /// Declares that all words in `group` are mutual synonyms.
  void AddSynonymGroup(const std::vector<std::string>& group);

  /// True if `a` and `b` are equal or declared synonyms (case-insensitive).
  bool AreSynonyms(std::string_view a, std::string_view b) const;

  /// Canonical representative of a word's synonym group (the word itself
  /// if it has no group).
  std::string Canonical(std::string_view word) const;

  /// Builds the purchase-order/e-commerce thesaurus used by the standard
  /// workload (buyer/purchaser, supplier/seller/vendor, ...).
  static Thesaurus CommerceDefault();

 private:
  // word -> group id; groups are disjoint.
  std::unordered_map<std::string, int> group_of_;
  std::vector<std::string> representative_;
};

/// \brief Maps strings to dense uint32 ids. Not thread-safe: each caller
/// (one ComposedMatcher::Match, one wrapper call) owns its own.
class TokenInterner {
 public:
  uint32_t Intern(std::string_view token);

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

/// Sorts `ids` and drops duplicates, turning a token sequence into the
/// set form the cores take.
void SortUnique(std::vector<uint32_t>* ids);

/// Token-set similarity over two sorted, duplicate-free id sets: a blend
/// of Jaccard and the overlap coefficient, 1.0 for two empty sets.
double TokenSetSimilarity(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b);

/// Jaccard similarity of two token multisets after canonicalizing each
/// token through the thesaurus.
double TokenSetSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b,
                          const Thesaurus& thesaurus);

/// \brief The per-name inputs of NameSimilarity.
struct NameFeatures {
  std::vector<uint32_t> tokens;  ///< Canonical token ids, sorted unique.
  Trigrams grams;
};

/// Tokenizes `name` and interns each token's canonical form.
NameFeatures MakeNameFeatures(std::string_view name,
                              const Thesaurus& thesaurus,
                              TokenInterner* interner);

/// NameSimilarity over precomputed features; a non-null `scratch` holds
/// the Levenshtein rows.
double NameSimilarity(const NameFeatures& a, const NameFeatures& b,
                      std::vector<int>* scratch = nullptr);

/// Composite name similarity of two element names: tokenizes both, then
/// combines token-set similarity (weight 0.55), trigram similarity (0.25)
/// and Levenshtein similarity (0.20) of the lower-cased raw names.
double NameSimilarity(std::string_view a, std::string_view b,
                      const Thesaurus& thesaurus);

}  // namespace uxm

#endif  // UXM_MATCHING_SIMILARITY_H_

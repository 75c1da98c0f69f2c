// Differential test of ComposedMatcher against a string-based oracle.
//
// The oracle below is the matcher as it was before scoring moved onto
// interned token ids and memoised name pairs: every (source, target) node
// pair rebuilds its token and trigram sets from strings. The interned
// matcher must reproduce it exactly — same correspondences, same order,
// bit-equal scores — on the Table II pairs under both strategies and on
// seeded random schemas built to hit every scoring corner.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/string_util.h"
#include "matching/matcher.h"
#include "matching/similarity.h"
#include "workload/datasets.h"
#include "workload/schema_zoo.h"

namespace uxm {
namespace {

// ---------------------------------------------------------------- oracle
namespace oracle {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  const int dist = LevenshteinDistance(a, b);
  const double denom = static_cast<double>(std::max(a.size(), b.size()));
  return 1.0 - static_cast<double>(dist) / denom;
}

double TrigramSimilarity(std::string_view a_raw, std::string_view b_raw) {
  const std::string a = ToLower(a_raw);
  const std::string b = ToLower(b_raw);
  if (a.size() < 3 || b.size() < 3) {
    if (a == b) return 1.0;
    if (!a.empty() && !b.empty() &&
        (a.find(b) != std::string::npos || b.find(a) != std::string::npos)) {
      return 0.5;
    }
    return 0.0;
  }
  auto trigrams = [](const std::string& s) {
    std::unordered_set<std::string> grams;
    for (size_t i = 0; i + 3 <= s.size(); ++i) grams.insert(s.substr(i, 3));
    return grams;
  };
  const auto ga = trigrams(a);
  const auto gb = trigrams(b);
  size_t common = 0;
  for (const auto& g : ga) {
    if (gb.count(g)) ++common;
  }
  return 2.0 * static_cast<double>(common) /
         static_cast<double>(ga.size() + gb.size());
}

double TokenSetSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b,
                          const Thesaurus& thesaurus) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_set<std::string> ca;
  std::unordered_set<std::string> cb;
  for (const auto& w : a) ca.insert(thesaurus.Canonical(w));
  for (const auto& w : b) cb.insert(thesaurus.Canonical(w));
  size_t common = 0;
  for (const auto& w : ca) {
    if (cb.count(w)) ++common;
  }
  const size_t uni = ca.size() + cb.size() - common;
  if (uni == 0) return 1.0;
  const double jaccard =
      static_cast<double>(common) / static_cast<double>(uni);
  const double overlap = static_cast<double>(common) /
                         static_cast<double>(std::min(ca.size(), cb.size()));
  return 0.65 * jaccard + 0.35 * overlap;
}

double NameSimilarity(std::string_view a, std::string_view b,
                      const Thesaurus& thesaurus) {
  const auto ta = TokenizeName(a);
  const auto tb = TokenizeName(b);
  const double token = oracle::TokenSetSimilarity(ta, tb, thesaurus);
  const double tri = TrigramSimilarity(a, b);
  const double lev = LevenshteinSimilarity(ToLower(a), ToLower(b));
  return 0.55 * token + 0.25 * tri + 0.20 * lev;
}

struct Features {
  std::vector<std::string> name_tokens;
  std::vector<std::string> path_tokens;
  std::vector<std::string> child_tokens;
  std::vector<std::string> leaf_tokens;
  std::string lower_name;
};

void AppendTokens(std::string_view name, const Thesaurus& thesaurus,
                  std::vector<std::string>* out) {
  for (const std::string& tok : TokenizeName(name)) {
    out->push_back(thesaurus.Canonical(tok));
  }
}

std::vector<Features> ComputeFeatures(const Schema& schema,
                                      const Thesaurus& thesaurus) {
  std::vector<Features> feats(static_cast<size_t>(schema.size()));
  for (const SchemaNode& node : schema.nodes()) {
    Features& f = feats[static_cast<size_t>(node.id)];
    f.lower_name = ToLower(node.name);
    AppendTokens(node.name, thesaurus, &f.name_tokens);
    for (SchemaNodeId c : node.children) {
      AppendTokens(schema.name(c), thesaurus, &f.child_tokens);
    }
  }
  for (const SchemaNode& node : schema.nodes()) {
    Features& f = feats[static_cast<size_t>(node.id)];
    if (node.parent != kInvalidSchemaNode) {
      f.path_tokens = feats[static_cast<size_t>(node.parent)].path_tokens;
    }
    for (const std::string& tok : f.name_tokens) f.path_tokens.push_back(tok);
  }
  for (SchemaNodeId id : schema.post_order()) {
    const SchemaNode& node = schema.node(id);
    Features& f = feats[static_cast<size_t>(id)];
    if (node.children.empty()) {
      f.leaf_tokens = f.name_tokens;
    } else {
      for (SchemaNodeId c : node.children) {
        const Features& cf = feats[static_cast<size_t>(c)];
        f.leaf_tokens.insert(f.leaf_tokens.end(), cf.leaf_tokens.begin(),
                             cf.leaf_tokens.end());
      }
      constexpr size_t kMaxLeafTokens = 48;
      if (f.leaf_tokens.size() > kMaxLeafTokens) {
        f.leaf_tokens.resize(kMaxLeafTokens);
      }
    }
  }
  return feats;
}

double PairScore(const MatcherOptions& options, const Thesaurus& thesaurus,
                 const Schema& s, const Features& fs, SchemaNodeId sid,
                 const Schema& t, const Features& ft, SchemaNodeId tid) {
  const double name =
      0.6 * oracle::TokenSetSimilarity(fs.name_tokens, ft.name_tokens,
                                       thesaurus) +
      0.25 * TrigramSimilarity(fs.lower_name, ft.lower_name) +
      0.15 * LevenshteinSimilarity(fs.lower_name, ft.lower_name);
  double structure = 0.0;
  if (options.strategy == MatcherStrategy::kContext) {
    const double path =
        oracle::TokenSetSimilarity(fs.path_tokens, ft.path_tokens, thesaurus);
    const double leaves =
        oracle::TokenSetSimilarity(fs.leaf_tokens, ft.leaf_tokens, thesaurus);
    const double ds =
        static_cast<double>(s.node(sid).depth) / std::max(1, s.Height());
    const double dt =
        static_cast<double>(t.node(tid).depth) / std::max(1, t.Height());
    structure = 0.5 * path + 0.35 * leaves + 0.15 * (1.0 - std::fabs(ds - dt));
  } else {
    const bool s_leaf = s.node(sid).children.empty();
    const bool t_leaf = t.node(tid).children.empty();
    if (s_leaf != t_leaf) {
      structure = 0.25;
    } else if (s_leaf) {
      const SchemaNodeId sp = s.node(sid).parent;
      const SchemaNodeId tp = t.node(tid).parent;
      if (sp != kInvalidSchemaNode && tp != kInvalidSchemaNode) {
        structure = oracle::NameSimilarity(s.name(sp), t.name(tp), thesaurus);
      } else {
        structure = 0.5;
      }
    } else {
      structure =
          0.5 * oracle::TokenSetSimilarity(fs.child_tokens, ft.child_tokens,
                                           thesaurus) +
          0.5 * oracle::TokenSetSimilarity(fs.leaf_tokens, ft.leaf_tokens,
                                           thesaurus);
    }
  }
  return options.name_weight * name + (1.0 - options.name_weight) * structure;
}

SchemaMatching Match(const MatcherOptions& options, const Thesaurus& thesaurus,
                     const Schema& source, const Schema& target) {
  const std::vector<Features> fs = ComputeFeatures(source, thesaurus);
  const std::vector<Features> ft = ComputeFeatures(target, thesaurus);
  const int ns = source.size();
  const int nt = target.size();
  std::vector<double> best_for_source(static_cast<size_t>(ns), 0.0);
  std::vector<double> best_for_target(static_cast<size_t>(nt), 0.0);
  struct Cand {
    SchemaNodeId s;
    SchemaNodeId t;
    double score;
  };
  std::vector<Cand> cands;
  for (SchemaNodeId si = 0; si < ns; ++si) {
    for (SchemaNodeId ti = 0; ti < nt; ++ti) {
      const double score =
          PairScore(options, thesaurus, source, fs[static_cast<size_t>(si)],
                    si, target, ft[static_cast<size_t>(ti)], ti);
      if (score < options.threshold) continue;
      cands.push_back({si, ti, score});
      best_for_source[static_cast<size_t>(si)] =
          std::max(best_for_source[static_cast<size_t>(si)], score);
      best_for_target[static_cast<size_t>(ti)] =
          std::max(best_for_target[static_cast<size_t>(ti)], score);
    }
  }
  std::vector<Cand> kept;
  for (const Cand& c : cands) {
    const double bar = options.relative_factor *
                       std::min(best_for_source[static_cast<size_t>(c.s)],
                                best_for_target[static_cast<size_t>(c.t)]);
    if (c.score >= bar) kept.push_back(c);
  }
  std::sort(kept.begin(), kept.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.t != b.t) return a.t < b.t;
    return a.s < b.s;
  });
  SchemaMatching matching(&source, &target);
  std::vector<int> per_target(static_cast<size_t>(nt), 0);
  std::vector<int> per_source(static_cast<size_t>(ns), 0);
  for (const Cand& c : kept) {
    if (options.max_per_target > 0 &&
        per_target[static_cast<size_t>(c.t)] >= options.max_per_target) {
      continue;
    }
    if (options.max_per_source > 0 &&
        per_source[static_cast<size_t>(c.s)] >= options.max_per_source) {
      continue;
    }
    EXPECT_TRUE(matching.Add(c.s, c.t, std::min(1.0, c.score)).ok());
    ++per_target[static_cast<size_t>(c.t)];
    ++per_source[static_cast<size_t>(c.s)];
  }
  return matching;
}

}  // namespace oracle

// ---------------------------------------------------------------- helpers

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectIdentical(const SchemaMatching& want, const SchemaMatching& got,
                     const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (int i = 0; i < want.size(); ++i) {
    const Correspondence& w = want.correspondences()[static_cast<size_t>(i)];
    const Correspondence& g = got.correspondences()[static_cast<size_t>(i)];
    ASSERT_EQ(w.source, g.source) << label << " #" << i;
    ASSERT_EQ(w.target, g.target) << label << " #" << i;
    ASSERT_EQ(Bits(w.score), Bits(g.score))
        << label << " #" << i << ": " << w.score << " vs " << g.score;
  }
}

/// Adds the matching's size to `*correspondences` when given, so sweeps
/// can check that they compared more than empty matchings.
void ExpectMatchesOracle(const MatcherOptions& options,
                         const Thesaurus& thesaurus, const Schema& source,
                         const Schema& target, const std::string& label,
                         int* correspondences = nullptr) {
  auto got = ComposedMatcher(options, thesaurus).Match(source, target);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  ExpectIdentical(oracle::Match(options, thesaurus, source, target), *got,
                  label);
  if (correspondences != nullptr) *correspondences += got->size();
}

MatcherOptions WithStrategy(MatcherStrategy strategy) {
  MatcherOptions o;
  o.strategy = strategy;
  return o;
}

constexpr MatcherStrategy kStrategies[] = {MatcherStrategy::kContext,
                                           MatcherStrategy::kFragment};

const char* StrategyName(MatcherStrategy s) {
  return s == MatcherStrategy::kContext ? "c" : "f";
}

// ---------------------------------------------------------------- Table II

TEST(MatcherDifferentialTest, TableIIPairsUnderBothStrategies) {
  const Thesaurus thesaurus = Thesaurus::CommerceDefault();
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    const auto source = GetStandardSchema(spec.source);
    const auto target = GetStandardSchema(spec.target);
    for (MatcherStrategy strategy : kStrategies) {
      ExpectMatchesOracle(WithStrategy(strategy), thesaurus, *source, *target,
                          std::string(spec.id) + "/" + StrategyName(strategy));
    }
  }
}

constexpr int kGoldenCorrespondences = 6525;
constexpr uint64_t kGoldenDigest = 0x61c87b8fabbb3aa0ull;

// FNV-1a over every correspondence (source, target, score bits) of the
// D1..D10 matchings under both strategies, in paper order. Recorded from
// the string-based matcher; any drift in ids, order or score bits moves it.
TEST(MatcherDifferentialTest, TableIIGoldenDigest) {
  uint64_t digest = kFnv1a64Seed;
  int total = 0;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    const auto source = GetStandardSchema(spec.source);
    const auto target = GetStandardSchema(spec.target);
    for (MatcherStrategy strategy : kStrategies) {
      auto m = ComposedMatcher(WithStrategy(strategy)).Match(*source, *target);
      ASSERT_TRUE(m.ok()) << m.status();
      for (const Correspondence& c : m->correspondences()) {
        const int32_t ids[2] = {c.source, c.target};
        const uint64_t bits = Bits(c.score);
        digest = Fnv1a64(ids, sizeof ids, digest);
        digest = Fnv1a64(&bits, sizeof bits, digest);
      }
      total += m->size();
    }
  }
  EXPECT_EQ(total, kGoldenCorrespondences);
  EXPECT_EQ(digest, kGoldenDigest);
}

// ---------------------------------------------------------------- random

// Name parts chosen to hit every scoring corner: short names (< 3 chars,
// the trigram fallback), thesaurus synonyms, digit runs, acronyms and
// separators.
const char* const kParts[] = {
    "id",       "no",      "a",        "Po",       "Qty",     "Buyer",
    "Purchaser", "Customer", "Seller",  "Vendor",   "Supplier", "Line",
    "Item",     "Article", "POLine",   "UOMCode",  "Address", "Addr",
    "Street",   "City",    "Town",     "Zip",      "Postal",  "Price",
    "Amount",   "Total",   "Sum",      "Ship",     "Delivery", "Date",
    "Contact",  "Person",  "Name",     "Tax",      "VAT",     "Ref",
    "Header",   "Order",   "Line2",    "Addr10",   "x9",      "Note"};
const char* const kSeparators[] = {"", "", "", "_", "-", ".", " "};

std::string RandomName(std::mt19937* rng) {
  std::uniform_int_distribution<int> parts(1, 3);
  std::uniform_int_distribution<size_t> part(0, std::size(kParts) - 1);
  std::uniform_int_distribution<size_t> sep(0, std::size(kSeparators) - 1);
  std::uniform_int_distribution<int> style(0, 9);
  std::string name;
  const int n = parts(*rng);
  for (int i = 0; i < n; ++i) {
    if (i > 0) name += kSeparators[sep(*rng)];
    name += kParts[part(*rng)];
  }
  const int s = style(*rng);
  if (s == 0) return ToUpper(name);
  if (s == 1) return ToLower(name);
  return name;
}

std::shared_ptr<Schema> RandomSchema(std::mt19937* rng, int size) {
  auto schema = std::make_shared<Schema>("random");
  std::uniform_int_distribution<int> coin(0, 3);
  std::vector<std::string> used;
  schema->AddRoot(RandomName(rng));
  // One wide subtree so leaf token sets overflow the 48-token sample.
  const SchemaNodeId wide = schema->AddChild(0, RandomName(rng));
  for (int i = 0; i < 50; ++i) {
    schema->AddChild(wide, RandomName(rng));
  }
  while (schema->size() < size) {
    std::uniform_int_distribution<int> parent(0, schema->size() - 1);
    std::string name = RandomName(rng);
    // Repeated names: reuse an earlier one a quarter of the time.
    if (!used.empty() && coin(*rng) == 0) {
      std::uniform_int_distribution<size_t> pick(0, used.size() - 1);
      name = used[pick(*rng)];
    }
    used.push_back(name);
    schema->AddChild(parent(*rng), name);
  }
  schema->Finalize();
  return schema;
}

TEST(MatcherDifferentialTest, RandomSchemasMatchOracle) {
  const Thesaurus thesaurus = Thesaurus::CommerceDefault();
  int correspondences = 0;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> size(60, 110);
    const auto source = RandomSchema(&rng, size(rng));
    const auto target = RandomSchema(&rng, size(rng));
    for (MatcherStrategy strategy : kStrategies) {
      ExpectMatchesOracle(WithStrategy(strategy), thesaurus, *source, *target,
                          "seed " + std::to_string(seed) + "/" +
                              StrategyName(strategy),
                          &correspondences);
      if (HasFatalFailure()) return;
    }
  }
  // ~44 per matching at these seeds; the floor catches a sweep that
  // degenerates into comparing near-empty matchings.
  EXPECT_GT(correspondences, 120 * 20);
}

// Merging two existing synonym groups leaves Canonical non-idempotent
// ("seller" -> "supplier" -> "buyer"): element tokens, canonicalized twice,
// and parent-name tokens, canonicalized once, must stay distinct.
TEST(MatcherDifferentialTest, MergedSynonymGroupsMatchOracle) {
  Thesaurus thesaurus = Thesaurus::CommerceDefault();
  thesaurus.AddSynonymGroup({"buyer", "supplier"});
  ASSERT_NE(thesaurus.Canonical("seller"),
            thesaurus.Canonical(thesaurus.Canonical("seller")));
  for (uint32_t seed = 100; seed < 110; ++seed) {
    std::mt19937 rng(seed);
    const auto source = RandomSchema(&rng, 80);
    const auto target = RandomSchema(&rng, 80);
    for (MatcherStrategy strategy : kStrategies) {
      ExpectMatchesOracle(WithStrategy(strategy), thesaurus, *source, *target,
                          "merged seed " + std::to_string(seed) + "/" +
                              StrategyName(strategy));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MatcherDifferentialTest, StringWrappersMatchOracle) {
  const Thesaurus thesaurus = Thesaurus::CommerceDefault();
  std::mt19937 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::string a = RandomName(&rng);
    const std::string b = RandomName(&rng);
    EXPECT_EQ(LevenshteinDistance(a, b), oracle::LevenshteinDistance(a, b));
    EXPECT_EQ(Bits(LevenshteinSimilarity(a, b)),
              Bits(oracle::LevenshteinSimilarity(a, b)));
    EXPECT_EQ(Bits(TrigramSimilarity(a, b)),
              Bits(oracle::TrigramSimilarity(a, b)))
        << a << " / " << b;
    EXPECT_EQ(Bits(TokenSetSimilarity(TokenizeName(a), TokenizeName(b),
                                      thesaurus)),
              Bits(oracle::TokenSetSimilarity(TokenizeName(a),
                                              TokenizeName(b), thesaurus)))
        << a << " / " << b;
    EXPECT_EQ(Bits(NameSimilarity(a, b, thesaurus)),
              Bits(oracle::NameSimilarity(a, b, thesaurus)))
        << a << " / " << b;
  }
}

}  // namespace
}  // namespace uxm

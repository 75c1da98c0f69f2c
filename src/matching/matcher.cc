#include "matching/matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"

namespace uxm {

namespace {

constexpr uint32_t kNoName = std::numeric_limits<uint32_t>::max();

/// Features of one distinct element name.
struct NameEntry {
  /// Tokens canonicalized once: the parent-name view of NameSimilarity.
  NameFeatures features;
  /// Tokens canonicalized twice, in name order: element token sets pass
  /// each token through Canonical when the feature is extracted and again
  /// in the token-set measure. The two forms differ only once
  /// AddSynonymGroup has merged two groups (Canonical is then not
  /// idempotent).
  std::vector<uint32_t> token_seq;
  std::vector<uint32_t> tokens;  ///< token_seq, sorted unique.
};

/// Per-node features of one schema, as sorted-unique token id sets.
struct SchemaFeatures {
  std::vector<NameEntry> names;  ///< Distinct element names.
  std::vector<uint32_t> name_of;  ///< Node -> index into `names`.
  std::vector<uint32_t> parent_name_of;  ///< name_of[parent]; root: kNoName.
  std::vector<std::vector<uint32_t>> path;   ///< Root-to-node name tokens.
  std::vector<std::vector<uint32_t>> child;  ///< Children's name tokens.
  std::vector<std::vector<uint32_t>> leaf;   ///< Descendant leaf tokens.
  std::vector<double> rel_depth;             ///< depth / max(1, height).
};

SchemaFeatures ComputeFeatures(const Schema& schema,
                               const Thesaurus& thesaurus,
                               TokenInterner* interner) {
  const size_t n = static_cast<size_t>(schema.size());
  SchemaFeatures f;
  f.name_of.resize(n);
  f.parent_name_of.resize(n);
  f.path.resize(n);
  f.child.resize(n);
  f.leaf.resize(n);
  f.rel_depth.resize(n);
  std::unordered_map<std::string_view, uint32_t> name_index;
  const int height = std::max(1, schema.Height());
  for (const SchemaNode& node : schema.nodes()) {
    const size_t id = static_cast<size_t>(node.id);
    const auto [it, fresh] = name_index.emplace(
        node.name, static_cast<uint32_t>(f.names.size()));
    if (fresh) {
      NameEntry e;
      e.features = MakeNameFeatures(node.name, thesaurus, interner);
      for (const std::string& tok : TokenizeName(node.name)) {
        e.token_seq.push_back(interner->Intern(
            thesaurus.Canonical(thesaurus.Canonical(tok))));
      }
      e.tokens = e.token_seq;
      SortUnique(&e.tokens);
      f.names.push_back(std::move(e));
    }
    f.name_of[id] = it->second;
    f.parent_name_of[id] = node.parent == kInvalidSchemaNode
                               ? kNoName
                               : f.name_of[static_cast<size_t>(node.parent)];
    f.rel_depth[id] = static_cast<double>(node.depth) / height;
  }
  auto entry_of = [&f](SchemaNodeId id) -> const NameEntry& {
    return f.names[f.name_of[static_cast<size_t>(id)]];
  };
  // Path tokens: parent's path tokens + own name tokens (root downward).
  for (const SchemaNode& node : schema.nodes()) {  // ids are topological
    std::vector<uint32_t>& path = f.path[static_cast<size_t>(node.id)];
    if (node.parent != kInvalidSchemaNode) {
      path = f.path[static_cast<size_t>(node.parent)];
    }
    const std::vector<uint32_t>& own = entry_of(node.id).tokens;
    path.insert(path.end(), own.begin(), own.end());
    SortUnique(&path);
    std::vector<uint32_t>& child = f.child[static_cast<size_t>(node.id)];
    for (SchemaNodeId c : node.children) {
      const std::vector<uint32_t>& ct = entry_of(c).tokens;
      child.insert(child.end(), ct.begin(), ct.end());
    }
    SortUnique(&child);
  }
  // Leaf tokens: bottom-up accumulation in post-order over the token
  // sequences, truncated before deduplication.
  std::vector<std::vector<uint32_t>> leaf_seq(n);
  for (SchemaNodeId id : schema.post_order()) {
    const SchemaNode& node = schema.node(id);
    std::vector<uint32_t>& seq = leaf_seq[static_cast<size_t>(id)];
    if (node.children.empty()) {
      seq = entry_of(id).token_seq;
    } else {
      for (SchemaNodeId c : node.children) {
        const std::vector<uint32_t>& cs = leaf_seq[static_cast<size_t>(c)];
        seq.insert(seq.end(), cs.begin(), cs.end());
      }
      // Bound feature size on big schemas; a sample of leaf names is enough
      // for a similarity signal.
      constexpr size_t kMaxLeafTokens = 48;
      if (seq.size() > kMaxLeafTokens) seq.resize(kMaxLeafTokens);
    }
    f.leaf[static_cast<size_t>(id)] = seq;
    SortUnique(&f.leaf[static_cast<size_t>(id)]);
  }
  return f;
}

}  // namespace

Result<SchemaMatching> ComposedMatcher::Match(const Schema& source,
                                              const Schema& target) const {
  if (!source.finalized() || !target.finalized()) {
    return Status::InvalidArgument("schemas must be finalized before Match");
  }
  if (options_.name_weight < 0.0 || options_.name_weight > 1.0) {
    return Status::InvalidArgument("name_weight must be in [0, 1]");
  }
  TokenInterner interner;
  const SchemaFeatures fs = ComputeFeatures(source, thesaurus_, &interner);
  const SchemaFeatures ft = ComputeFeatures(target, thesaurus_, &interner);

  const int ns = source.size();
  const int nt = target.size();
  std::vector<double> best_for_source(static_cast<size_t>(ns), 0.0);
  std::vector<double> best_for_target(static_cast<size_t>(nt), 0.0);

  // Source nodes grouped by (name, parent name): the name component and
  // the fragment strategy's parent-name similarity depend on names only,
  // so each row over the target's distinct names is filled once per
  // group. Candidate order is irrelevant; the final sort is total.
  std::vector<SchemaNodeId> order(static_cast<size_t>(ns));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&fs](SchemaNodeId a, SchemaNodeId b) {
                     const size_t ia = static_cast<size_t>(a);
                     const size_t ib = static_cast<size_t>(b);
                     if (fs.name_of[ia] != fs.name_of[ib]) {
                       return fs.name_of[ia] < fs.name_of[ib];
                     }
                     return fs.parent_name_of[ia] < fs.parent_name_of[ib];
                   });

  const size_t target_names = ft.names.size();
  std::vector<double> name_row(target_names);
  std::vector<double> parent_row(target_names);
  constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  uint32_t row_name = kNoName;
  uint32_t row_parent = kNoName;
  std::vector<int> scratch;

  struct Cand {
    SchemaNodeId s;
    SchemaNodeId t;
    double score;
  };
  std::vector<Cand> cands;
  for (const SchemaNodeId si : order) {
    const size_t s = static_cast<size_t>(si);
    if (fs.name_of[s] != row_name) {
      row_name = fs.name_of[s];
      const NameEntry& a = fs.names[row_name];
      for (size_t tn = 0; tn < target_names; ++tn) {
        const NameEntry& b = ft.names[tn];
        name_row[tn] =
            0.6 * TokenSetSimilarity(a.tokens, b.tokens) +
            0.25 * TrigramSimilarity(a.features.grams, b.features.grams) +
            0.15 * LevenshteinSimilarity(a.features.grams.lower,
                                         b.features.grams.lower, &scratch);
      }
    }
    const bool s_leaf = source.node(si).children.empty();
    if (options_.strategy == MatcherStrategy::kFragment && s_leaf &&
        fs.parent_name_of[s] != row_parent) {
      row_parent = fs.parent_name_of[s];
      std::fill(parent_row.begin(), parent_row.end(), kUnset);
    }
    for (SchemaNodeId ti = 0; ti < nt; ++ti) {
      const size_t t = static_cast<size_t>(ti);
      double structure = 0.0;
      if (options_.strategy == MatcherStrategy::kContext) {
        // Context = root path agreement + descendant-content agreement + a
        // mild relative-depth bonus.
        const double path = TokenSetSimilarity(fs.path[s], ft.path[t]);
        const double leaves = TokenSetSimilarity(fs.leaf[s], ft.leaf[t]);
        structure = 0.5 * path + 0.35 * leaves +
                    0.15 * (1.0 - std::fabs(fs.rel_depth[s] - ft.rel_depth[t]));
      } else {
        const bool t_leaf = target.node(ti).children.empty();
        if (s_leaf != t_leaf) {
          structure = 0.25;  // leaf vs internal: weak structural agreement
        } else if (s_leaf) {
          // Two leaves: fragment similarity is parent-context similarity.
          const uint32_t tp = ft.parent_name_of[t];
          if (row_parent != kNoName && tp != kNoName) {
            double& cell = parent_row[tp];
            if (std::isnan(cell)) {
              cell = NameSimilarity(fs.names[row_parent].features,
                                    ft.names[tp].features, &scratch);
            }
            structure = cell;
          } else {
            structure = 0.5;
          }
        } else {
          structure = 0.5 * TokenSetSimilarity(fs.child[s], ft.child[t]) +
                      0.5 * TokenSetSimilarity(fs.leaf[s], ft.leaf[t]);
        }
      }
      const double score =
          options_.name_weight * name_row[ft.name_of[t]] +
          (1.0 - options_.name_weight) * structure;
      if (score < options_.threshold) continue;
      cands.push_back({si, ti, score});
      best_for_source[s] = std::max(best_for_source[s], score);
      best_for_target[t] = std::max(best_for_target[t], score);
    }
  }

  // Relative dominance filter, then per-target cap by descending score.
  std::vector<Cand> kept;
  for (const Cand& c : cands) {
    const double bar =
        options_.relative_factor *
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
    if (options_.max_per_target > 0 &&
        per_target[static_cast<size_t>(c.t)] >= options_.max_per_target) {
      continue;
    }
    if (options_.max_per_source > 0 &&
        per_source[static_cast<size_t>(c.s)] >= options_.max_per_source) {
      continue;
    }
    const double clamped = std::min(1.0, c.score);
    UXM_RETURN_NOT_OK(matching.Add(c.s, c.t, clamped));
    ++per_target[static_cast<size_t>(c.t)];
    ++per_source[static_cast<size_t>(c.s)];
  }
  return matching;
}

}  // namespace uxm

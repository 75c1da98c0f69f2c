// QueryPlan::DocumentAnswerUpperBound runs a probe compiled once per
// (plan, top_k) into flat atom / conjunction / conjunction-set arrays.
// These tests hold it to the direct walk it replaced, kept here as an
// oracle: for the Table III twigs and seeded random twigs (with '//'
// edges, branches and value predicates) over documents of all ten Table II
// datasets and top_k in {0, 1, 5, 100}, the compiled probe must return
// the oracle's double bit for bit, and kProvenEmptyBound exactly where
// the oracle finds no selected relevant mapping that may match. A last
// test races first use of one plan's probes from several threads.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "plan/prepared_pair.h"
#include "plan/query_plan.h"
#include "query/annotated_document.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

/// The oracle's verdict: the summed may-match mass, and whether any
/// selected relevant mapping may match at all.
struct OracleBound {
  double mass = 0.0;
  bool any = false;
};

/// The document probe as a direct walk: the selection prefix in
/// MappingOrder order, each mapping tested embedding by embedding, each
/// (query node, source element) binding checked against the document.
OracleBound OracleDocumentBound(const QueryPlan& plan,
                                const FlatMappingTable& table, int top_k,
                                const AnnotatedDocument& doc) {
  OracleBound out;
  const std::vector<std::vector<SchemaNodeId>>& assignments =
      plan.embeddings();
  if (assignments.empty()) return out;
  const TwigQuery& query = plan.query();
  auto has_instance = [&](int q, SchemaNodeId src) {
    const std::vector<DocNodeId>& inst = doc.InstancesOf(src);
    const TwigNode& qn = query.node(q);
    if (!qn.value_eq.has_value()) return !inst.empty();
    for (const DocNodeId n : inst) {
      if (doc.doc().text(n) == *qn.value_eq) return true;
    }
    return false;
  };
  auto may_match = [&](MappingId mid) {
    const SchemaNodeId* row = table.Row(mid);
    for (const std::vector<SchemaNodeId>& emb : assignments) {
      bool ok = true;
      for (int q = 0; q < query.size() && ok; ++q) {
        const SchemaNodeId t = emb[static_cast<size_t>(q)];
        const SchemaNodeId src =
            t == kInvalidSchemaNode ? kInvalidSchemaNode : row[t];
        ok = src != kInvalidSchemaNode && has_instance(q, src);
      }
      if (ok) return true;
    }
    return false;
  };
  int found = 0;
  for (const MappingId mid : plan.order().by_probability) {
    if (!plan.IsRelevant(mid)) continue;
    if (may_match(mid)) {
      out.mass += table.probability[static_cast<size_t>(mid)];
      out.any = true;
    }
    if (top_k > 0 && ++found == top_k) break;
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// All proper descendants of `node` in `schema`.
void Descendants(const Schema& schema, SchemaNodeId node,
                 std::vector<SchemaNodeId>* out) {
  for (const SchemaNodeId child : schema.node(node).children) {
    out->push_back(child);
    Descendants(schema, child, out);
  }
}

/// `="v"` for a value without a double quote (or `='v'` otherwise).
std::string Quoted(const std::string& value) {
  const char quote = value.find('"') == std::string::npos ? '"' : '\'';
  return std::string(1, '=') + quote + value + quote;
}

/// Appends a random step below `node` ('/' to a child or '//' to any
/// descendant) and returns the element it lands on, or -1 if `node` is a
/// leaf.
SchemaNodeId AppendStep(const Schema& schema, SchemaNodeId node, Rng* rng,
                        bool branch, std::string* out) {
  const bool child = rng->Bernoulli(0.5);
  std::vector<SchemaNodeId> next;
  if (child) {
    next = schema.node(node).children;
  } else {
    Descendants(schema, node, &next);
  }
  if (next.empty()) return -1;
  const SchemaNodeId to = next[rng->Index(next.size())];
  if (branch) *out += child ? "[./" : "[.//";
  else *out += child ? "/" : "//";
  *out += schema.name(to);
  return to;
}

/// A random twig over `schema`'s element names: a '//'-rooted spine of up
/// to three steps from a random element, optional one-step branches, and
/// value predicates drawn from `values` (document texts, so some hold)
/// or a value no document has.
std::string RandomTwig(const Schema& schema,
                       const std::vector<std::string>& values, Rng* rng) {
  auto value = [&] {
    return rng->Bernoulli(0.8) && !values.empty()
               ? Quoted(values[rng->Index(values.size())])
               : Quoted("no such value");
  };
  SchemaNodeId node =
      static_cast<SchemaNodeId>(rng->Index(static_cast<size_t>(schema.size())));
  std::string out = "//" + schema.name(node);
  const int steps = static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < steps; ++i) {
    if (rng->Bernoulli(0.3)) {
      std::string branch;
      if (AppendStep(schema, node, rng, /*branch=*/true, &branch) >= 0) {
        if (rng->Bernoulli(0.4)) branch += value();
        out += branch + "]";
      }
    }
    const SchemaNodeId to = AppendStep(schema, node, rng, false, &out);
    if (to < 0) break;
    node = to;
  }
  if (rng->Bernoulli(0.3)) out += value();
  return out;
}

struct ProbeCorpus {
  Dataset dataset;
  std::shared_ptr<const PreparedSchemaPair> pair;
  std::vector<std::shared_ptr<const Document>> docs;
  std::vector<std::shared_ptr<const AnnotatedDocument>> annotated;
  std::vector<std::string> values;  ///< distinct-ish document texts
};

ProbeCorpus MakeProbeCorpus(int dataset_index, uint64_t seed) {
  ProbeCorpus c;
  auto dataset = LoadDataset(dataset_index);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  c.dataset = std::move(dataset).ValueOrDie();
  auto pair = BuildPreparedSchemaPair(c.dataset.matching, PairBuildOptions{});
  EXPECT_TRUE(pair.ok()) << pair.status();
  c.pair = std::move(pair).ValueOrDie();
  // Documents with every optional element present, with none, and
  // in between, so that some bindings have instances and some do not.
  for (const double optional_prob : {1.0, 0.0, 0.5}) {
    DocGenOptions gen;
    gen.seed = seed++;
    gen.optional_prob = optional_prob;
    gen.target_nodes = 200;
    auto doc = std::make_shared<const Document>(
        GenerateDocument(*c.dataset.source, gen));
    auto bound = AnnotatedDocument::Bind(doc.get(), c.dataset.source.get());
    EXPECT_TRUE(bound.ok()) << bound.status();
    c.annotated.push_back(std::make_shared<const AnnotatedDocument>(
        std::move(bound).ValueOrDie()));
    for (DocNodeId n = 0; n < doc->size(); n += 7) {
      if (!doc->text(n).empty()) c.values.push_back(doc->text(n));
    }
    c.docs.push_back(std::move(doc));
  }
  return c;
}

constexpr int kTopKs[] = {0, 1, 5, 100};

TEST(DocumentProbeTest, CompiledProbeIsBitIdenticalToTheDirectWalk) {
  Rng rng(20240615);
  int sentinels = 0;
  int bounded = 0;
  int refined = 0;  // strictly below the pair-level bound
  for (int d = 0; d < 10; ++d) {
    const ProbeCorpus c = MakeProbeCorpus(d, 1000 + 10 * d);
    std::vector<std::string> twigs;
    if (c.dataset.id == "D7") twigs = TableIIIQueries();
    for (int i = 0; i < 48; ++i) {
      twigs.push_back(RandomTwig(*c.dataset.target, c.values, &rng));
    }
    for (const std::string& twig : twigs) {
      auto compiled = c.pair->compiler->Compile(twig);
      ASSERT_TRUE(compiled.ok()) << twig << ": " << compiled.status();
      const QueryPlan& plan = **compiled;
      for (const int k : kTopKs) {
        for (size_t i = 0; i < c.annotated.size(); ++i) {
          const std::string label = c.dataset.id + " " + twig + " k=" +
                                    std::to_string(k) + " doc " +
                                    std::to_string(i);
          const OracleBound want =
              OracleDocumentBound(plan, c.pair->flat->mappings, k,
                                  *c.annotated[i]);
          const double got =
              plan.DocumentAnswerUpperBound(k, *c.annotated[i]);
          if (!want.any) {
            EXPECT_EQ(Bits(got), Bits(kProvenEmptyBound)) << label;
            ++sentinels;
            continue;
          }
          EXPECT_EQ(Bits(got), Bits(want.mass))
              << label << ": got " << got << ", want " << want.mass;
          ++bounded;
          if (got + kAnswerBoundSlack < plan.AnswerUpperBound(k)) ++refined;
        }
      }
    }
  }
  // The sweep must exercise all three outcomes.
  EXPECT_GT(sentinels, 100);
  EXPECT_GT(bounded, 100);
  EXPECT_GT(refined, 10);
}

// Many threads meet a fresh plan's probes for the first time at once: each
// (plan, top_k) is compiled exactly once, published lock-free, and every
// thread reads the oracle's bound.
TEST(DocumentProbeTest, ConcurrentFirstUseSharesOneCompiledProbe) {
  const ProbeCorpus c = MakeProbeCorpus(6, 77);  // D7
  for (const std::string& twig : TableIIIQueries()) {
    // A private pair (and so a fresh plan cache) per twig keeps every
    // probe of this plan uncompiled until the threads start.
    auto pair = BuildPreparedSchemaPair(c.dataset.matching, PairBuildOptions{});
    ASSERT_TRUE(pair.ok()) << pair.status();
    auto compiled = (*pair)->compiler->Compile(twig);
    ASSERT_TRUE(compiled.ok()) << twig << ": " << compiled.status();
    const QueryPlan& plan = **compiled;
    std::vector<double> want;
    for (const int k : kTopKs) {
      for (const auto& doc : c.annotated) {
        const OracleBound o =
            OracleDocumentBound(plan, (*pair)->flat->mappings, k, *doc);
        want.push_back(o.any ? o.mass : kProvenEmptyBound);
      }
    }
    constexpr int kThreads = 4;
    std::vector<std::vector<double>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const int k : kTopKs) {
          for (const auto& doc : c.annotated) {
            got[static_cast<size_t>(t)].push_back(
                plan.DocumentAnswerUpperBound(k, *doc));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[static_cast<size_t>(t)].size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(Bits(got[static_cast<size_t>(t)][i]), Bits(want[i]))
            << twig << " thread " << t << " probe " << i;
      }
    }
  }
}

}  // namespace
}  // namespace uxm

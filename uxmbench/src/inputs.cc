#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "query/twig_query.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"
#include "workload/schema_zoo.h"
#include "xml/xml_parser.h"

namespace uxmbench {

using uxm::Rng;

namespace {

constexpr const char* kWorkloadNames[] = {"cold_start", "topk_hot",
                                          "topk_cold", "ingest_mix"};

// Each cold_start pair gets this many documents, and its first answers
// are this many queries over them.
constexpr int kColdStartDocsPerPair = 8;
constexpr int kColdStartDocsD7 = 20;
constexpr int kColdStartQueriesPerPair = 4;
constexpr uint64_t kColdStartTwigSeed = 20100301;

// The document generator's leaf value pools (workload/
// document_generator.cc), keyed by the Table III labels that carry
// values, so equality predicates can hit.
const char* const kNames[] = {"Cathy", "Bob",   "Alice", "David",
                              "Erin",  "Frank", "Grace", "Heidi"};
const char* const kCities[] = {"Hong Kong", "Leipzig", "Boston",
                               "Shenzhen",  "Toronto", "Zurich"};
const char* const kCountries[] = {"CN", "DE", "US", "CA", "CH"};
const char* const kStreets[] = {"Pokfulam Road", "Main Street",
                                "Harbour View", "Elm Avenue"};

std::string PoolValue(const std::string& label, Rng* rng) {
  auto pick = [&](const auto& pool) {
    return std::string(pool[rng->Index(std::size(pool))]);
  };
  if (label == "City") return pick(kCities);
  if (label == "Country") return pick(kCountries);
  if (label == "Street") return pick(kStreets);
  if (label == "EMail") {
    std::string name = pick(kNames);
    std::transform(name.begin(), name.end(), name.begin(), ::tolower);
    return name + "@example.com";
  }
  if (label == "LineNo" || label == "Quantity") {
    return std::to_string(1 + rng->Index(99));
  }
  if (label == "UnitPrice") {
    return std::to_string(1 + rng->Index(999)) + "." +
           std::to_string(rng->Index(10)) + "0";
  }
  if (label == "BuyerPartID") return "X" + std::to_string(1000 + rng->Index(9000));
  return pick(kNames);
}

// A Table III template with some child edges widened to descendant edges
// and some leaves given an equality predicate. Empty if the variant does
// not parse back (it always should).
std::string ColdVariant(const std::string& base, Rng* rng) {
  auto parsed = uxm::TwigQuery::Parse(base);
  if (!parsed.ok()) return "";
  const uxm::TwigQuery& q = *parsed;
  uxm::TwigQuery v;
  v.set_absolute_root(q.absolute_root());
  for (const uxm::TwigNode& n : q.nodes()) {
    uxm::TwigNode copy = n;
    copy.children.clear();
    if (copy.parent >= 0 && copy.axis == uxm::Axis::kChild &&
        rng->Bernoulli(0.3)) {
      copy.axis = uxm::Axis::kDescendant;
    }
    if (n.children.empty() && rng->Bernoulli(0.6)) {
      copy.value_eq = PoolValue(n.label, rng);
    }
    v.AddNode(std::move(copy));
  }
  v.set_output_node(q.output_node());
  std::string text = v.ToString();
  if (!uxm::TwigQuery::Parse(text).ok()) return "";
  return text;
}

// A root-to-leaf child path of `schema` ending at a leaf of depth >= 2.
std::string LeafPathTwig(const uxm::Schema& schema, Rng* rng) {
  std::vector<uxm::SchemaNodeId> leaves;
  for (uxm::SchemaNodeId l : schema.Leaves()) {
    if (schema.node(l).depth >= 2) leaves.push_back(l);
  }
  if (leaves.empty()) leaves = schema.Leaves();
  std::vector<std::string> steps;
  for (uxm::SchemaNodeId n = leaves[rng->Index(leaves.size())];
       n != uxm::kInvalidSchemaNode; n = schema.node(n).parent) {
    steps.push_back(schema.name(n));
  }
  std::string twig;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (!twig.empty()) twig += "/";
    twig += *it;
  }
  return twig;
}

// Documents come at the generator's natural size for their schema
// (about 200 nodes for OpenTrans, 800 for XCBL): its size search costs
// tens of milliseconds per document and cannot shrink XCBL below ~760.
std::string GenerateXml(const uxm::Schema& schema, Rng* rng) {
  uxm::DocGenOptions gen;
  gen.seed = rng->NextU64();
  return uxm::WriteXml(uxm::GenerateDocument(schema, gen));
}

// `count` documents; document i belongs to pairs[pair_of(i)], and every
// fourth document of a pair is a content clone of an earlier one (same
// text, distinct name). The proportions are fixed, so runs with
// different seeds serve corpora of the same make-up; the seed draws the
// content.
template <typename PairOf>
std::vector<DocInput> MakeDocs(const std::vector<PairInput>& pairs,
                               const std::string& prefix, int count,
                               PairOf pair_of, Rng* rng) {
  std::vector<DocInput> docs;
  std::vector<std::vector<size_t>> by_pair(pairs.size());
  for (int i = 0; i < count; ++i) {
    DocInput d;
    char name[32];
    std::snprintf(name, sizeof(name), "%s%05d", prefix.c_str(), i);
    d.name = name;
    d.pair = pair_of(i);
    std::vector<size_t>& earlier = by_pair[d.pair];
    if (earlier.size() % 4 == 3) {
      d.xml = docs[earlier[rng->Index(earlier.size())]].xml;
    } else {
      d.xml = GenerateXml(*pairs[d.pair].source, rng);
    }
    earlier.push_back(docs.size());
    docs.push_back(std::move(d));
  }
  return docs;
}

PairInput MakePair(const uxm::DatasetSpec& spec,
                   std::shared_ptr<const uxm::Schema> source,
                   std::shared_ptr<const uxm::Schema> target) {
  PairInput p;
  p.id = spec.id;
  p.strategy = spec.option;
  p.source = std::move(source);
  p.target = std::move(target);
  return p;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  for (size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (name == kWorkloadNames[i]) {
      *out = static_cast<WorkloadId>(i);
      return true;
    }
  }
  return false;
}

Inputs MakeInputs(WorkloadId workload, uint64_t seed, double seconds) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(workload));
  Inputs in;
  const std::vector<std::string>& table3 = uxm::TableIIIQueries();

  if (workload == WorkloadId::kColdStart) {
    // All ten Table II pairs. D2/D3 and D4/D5 relate the same two
    // standards under different matcher options; registering both needs
    // distinct schema objects, so every pair gets its own copies.
    for (const uxm::DatasetSpec& spec : uxm::AllDatasetSpecs()) {
      in.pairs.push_back(MakePair(spec, uxm::BuildStandardSchema(spec.source),
                                  uxm::BuildStandardSchema(spec.target)));
    }
    // Documents round-robin over the pairs; D7, whose source is the
    // paper's XCBL Order.xml schema, gets more than the others. (With
    // equal counts half the documents would have small sources, and the
    // write median would sit in the gap between small and large ones;
    // with these it sits mid-way through the OpenTrans documents.)
    const size_t n = in.pairs.size();
    std::vector<size_t> order;
    for (int round = 0; round < kColdStartDocsD7; ++round) {
      for (size_t p = 0; p < n; ++p) {
        if (round < (in.pairs[p].id == "D7" ? kColdStartDocsD7
                                            : kColdStartDocsPerPair)) {
          order.push_back(p);
        }
      }
    }
    in.initial_docs = MakeDocs(
        in.pairs, "cs-", static_cast<int>(order.size()),
        [&order](int i) { return order[static_cast<size_t>(i)]; }, &rng);
    // The first-answer twigs are the same for every seed: which leaf a
    // twig ends at changes a first answer's cost by up to 50x.
    Rng twig_rng(kColdStartTwigSeed);
    for (size_t p = 0; p < n; ++p) {
      for (int q = 0; q < kColdStartQueriesPerPair; ++q) {
        FirstQuery fq;
        fq.pair = p;
        // Table III is posed on Apertum; other targets get a leaf path.
        fq.twig =
            uxm::AllDatasetSpecs()[p].target == uxm::StandardId::kApertum
                ? table3[twig_rng.Index(table3.size())]
                : LeafPathTwig(*in.pairs[p].target, &twig_rng);
        for (const DocInput& d : in.initial_docs) {
          if (d.pair == p) fq.documents.push_back(d.name);
        }
        in.first_queries.push_back(std::move(fq));
      }
    }
    return in;
  }

  // The corpus workloads: XCBL (D7) and OpenTrans (D6) documents, both
  // mapped onto one shared Apertum target schema.
  const auto apertum = uxm::GetStandardSchema(uxm::StandardId::kApertum);
  for (const uxm::DatasetSpec& spec : uxm::AllDatasetSpecs()) {
    if (std::string(spec.id) == "D6" || std::string(spec.id) == "D7") {
      in.pairs.push_back(
          MakePair(spec, uxm::GetStandardSchema(spec.source), apertum));
    }
  }
  // One document in four is XCBL (D7, ~800 nodes), three are OpenTrans
  // (D6, ~200 nodes): a fixed mix, with medians inside the OpenTrans
  // mode instead of in the gap between the two sizes.
  auto pair_of = [](int i) -> size_t { return i % 4 == 3 ? 1 : 0; };
  const int corpus = workload == WorkloadId::kIngestMix ? kWindowDocuments
                                                        : kCorpusDocuments;
  in.initial_docs = MakeDocs(in.pairs, "doc-", corpus, pair_of, &rng);
  in.first_queries.push_back({0, table3[rng.Index(table3.size())], {}});

  // Zipf(s = 1) popularity over the ten queries, ranked in Table III
  // order (the seed draws the sequence, not the ranking, so runs with
  // different seeds send the same mix). Sampled by inverse CDF here:
  // uxm::Rng::Zipf divides by 1 - s.
  in.hot_twigs = table3;
  std::vector<double> cdf;
  for (size_t r = 1; r <= in.hot_twigs.size(); ++r) {
    cdf.push_back((cdf.empty() ? 0.0 : cdf.back()) + 1.0 / static_cast<double>(r));
  }
  const size_t per_client =
      std::max<size_t>(4096, static_cast<size_t>(5000 * seconds));
  in.client_hot_sequence.resize(kClients);
  for (auto& seq : in.client_hot_sequence) {
    seq.reserve(per_client);
    for (size_t i = 0; i < per_client; ++i) {
      const double u = rng.NextDouble() * cdf.back();
      const size_t rank = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      seq.push_back(static_cast<uint32_t>(std::min(rank, cdf.size() - 1)));
    }
  }

  if (workload == WorkloadId::kTopkCold) {
    const size_t want =
        std::max<size_t>(4000, static_cast<size_t>(2000 * seconds));
    std::unordered_set<std::string> seen;
    auto next_unique = [&]() {
      for (;;) {
        std::string t = ColdVariant(table3[rng.Index(table3.size())], &rng);
        if (!t.empty() && seen.insert(t).second) return t;
      }
    };
    for (int i = 0; i < 16; ++i) in.warmup_twigs.push_back(next_unique());
    in.cold_twigs.reserve(want);
    while (in.cold_twigs.size() < want) in.cold_twigs.push_back(next_unique());
  }

  if (workload == WorkloadId::kIngestMix) {
    const int writes = static_cast<int>(kWriterRatePerS * seconds * 1.2) + 16;
    in.writer_docs = MakeDocs(in.pairs, "new-", writes, pair_of, &rng);
  }
  return in;
}

}  // namespace uxmbench

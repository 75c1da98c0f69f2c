// Corpus subsystem tests: corpus store registration semantics, the
// cross-document top-k merge, and the facade corpus API — including the
// acceptance property that QueryCorpus over N generated documents equals
// the brute-force merge of per-document Query results.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "shard/sharded_corpus_executor.h"
#include "shard/sharded_store.h"
#include "test_util.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

using testutil::MakePaperExample;
using testutil::PaperExample;

// ---------------------------------------------------------------- store

class DocumentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = MakePaperExample();
    auto bound =
        AnnotatedDocument::Bind(example_.doc.get(), example_.source.get());
    ASSERT_TRUE(bound.ok());
    annotated_ = std::make_shared<const AnnotatedDocument>(
        std::move(bound).ValueOrDie());
    pair_ = testutil::MakePaperPair(example_);
  }

  CorpusDocument Entry(const std::string& name, uint64_t epoch = 1) const {
    return CorpusDocument{name, example_.doc.get(), annotated_, epoch, pair_};
  }

  PaperExample example_;
  std::shared_ptr<const AnnotatedDocument> annotated_;
  std::shared_ptr<const PreparedSchemaPair> pair_;
};

TEST_F(DocumentStoreTest, AddRemoveAndNames) {
  ShardedDocumentStore store(1);
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(store.Add(Entry("b")).ok());
  ASSERT_TRUE(store.Add(Entry("a")).ok());
  EXPECT_EQ(store.size(), 2u);
  // Names (and snapshots) are sorted regardless of insertion order.
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(store.Remove("b").ok());
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(store.Remove("b").IsNotFound());
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(DocumentStoreTest, RejectsDuplicatesAndBadEntries) {
  ShardedDocumentStore store(1);
  ASSERT_TRUE(store.Add(Entry("a")).ok());
  EXPECT_EQ(store.Add(Entry("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.Add(Entry("")).IsInvalidArgument());
  CorpusDocument no_annotation = Entry("c");
  no_annotation.annotated = nullptr;
  EXPECT_TRUE(store.Add(std::move(no_annotation)).IsInvalidArgument());
  CorpusDocument no_pair = Entry("d");
  no_pair.pair = nullptr;
  EXPECT_TRUE(store.Add(std::move(no_pair)).IsInvalidArgument());
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(DocumentStoreTest, SnapshotsAreImmutableViews) {
  ShardedDocumentStore store(1);
  ASSERT_TRUE(store.Add(Entry("a")).ok());
  auto before = store.Snapshot()->all;
  ASSERT_TRUE(store.Add(Entry("b")).ok());
  ASSERT_TRUE(store.Remove("a").ok());
  // The earlier snapshot still sees exactly the corpus of its instant.
  ASSERT_EQ(before->size(), 1u);
  EXPECT_EQ((*before)[0].name, "a");
  auto after = store.Snapshot()->all;
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].name, "b");
}

TEST_F(DocumentStoreTest, RebindPairSwapsIncarnationsAndRestamps) {
  ShardedDocumentStore store(1);
  ASSERT_TRUE(store.Add(Entry("a", 5)).ok());
  ASSERT_TRUE(store.Add(Entry("b", 5)).ok());
  // A new incarnation of the same (source, target) pair: every entry of
  // that pair re-binds to it with the new epoch.
  auto reprepared = testutil::MakePaperPair(example_);
  ASSERT_NE(reprepared->pair_id, pair_->pair_id);
  EXPECT_EQ(store.RebindPair(reprepared, 9), 2);
  for (const CorpusDocument& e : *store.Snapshot()->all) {
    EXPECT_EQ(e.epoch, 9u);
    EXPECT_EQ(e.pair.get(), reprepared.get());
  }
  // A pair over different schemas touches nothing.
  PaperExample other = MakePaperExample();
  EXPECT_EQ(store.RebindPair(testutil::MakePaperPair(other), 11), 0);
  for (const CorpusDocument& e : *store.Snapshot()->all) {
    EXPECT_EQ(e.epoch, 9u);
  }
  // Restamp stamps every entry regardless of pair.
  store.Restamp(12);
  for (const CorpusDocument& e : *store.Snapshot()->all) {
    EXPECT_EQ(e.epoch, 12u);
  }
}

// ---------------------------------------------------------------- merge

PtqResult MakeResult(
    const std::vector<std::pair<double, std::vector<DocNodeId>>>& answers) {
  PtqResult r;
  for (size_t i = 0; i < answers.size(); ++i) {
    r.answers.push_back(MappingAnswer{static_cast<MappingId>(i),
                                      answers[i].first, answers[i].second});
  }
  return r;
}

TEST(CollapseForCorpusTest, AggregatesDropsEmptyAndSorts) {
  const PtqResult r = MakeResult(
      {{0.3, {1, 2}}, {0.2, {}}, {0.25, {7}}, {0.15, {1, 2}}, {0.1, {}}});
  const std::vector<CorpusAnswer> collapsed = CollapseForCorpus("d", r);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].document, "d");
  EXPECT_NEAR(collapsed[0].probability, 0.45, 1e-12);  // 0.3 + 0.15
  EXPECT_EQ(collapsed[0].matches, (std::vector<DocNodeId>{1, 2}));
  EXPECT_NEAR(collapsed[1].probability, 0.25, 1e-12);
  EXPECT_EQ(collapsed[1].matches, (std::vector<DocNodeId>{7}));
}

TEST(MergeTopKTest, MergesAcrossDocumentsWithDeterministicTies) {
  const std::vector<CorpusAnswer> doc_a = {
      {"a", 0.5, {1}}, {"a", 0.2, {2}}, {"a", 0.2, {3}}};
  const std::vector<CorpusAnswer> doc_b = {{"b", 0.5, {9}}, {"b", 0.3, {8}}};
  const auto merged = MergeTopK({doc_a, doc_b}, 0);
  ASSERT_EQ(merged.size(), 5u);
  // 0.5 tie: document "a" before "b"; 0.2 tie: matches {2} before {3}.
  EXPECT_EQ(merged[0].document, "a");
  EXPECT_EQ(merged[1].document, "b");
  EXPECT_EQ(merged[2].document, "b");  // 0.3
  EXPECT_EQ(merged[3].matches, (std::vector<DocNodeId>{2}));
  EXPECT_EQ(merged[4].matches, (std::vector<DocNodeId>{3}));
  // k truncates.
  EXPECT_EQ(MergeTopK({doc_a, doc_b}, 2).size(), 2u);
  EXPECT_EQ(MergeTopK({doc_a, doc_b}, 100).size(), 5u);
  EXPECT_TRUE(MergeTopK({}, 3).empty());
}

// ---------------------------------------------------------------- facade

class CorpusSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_documents = 4;
    gen.min_target_nodes = 150;
    gen.max_target_nodes = 300;
    gen.clone_probability = 0.5;  // force cross-document answer overlap
    auto scenario = MakeCorpusScenario("D7", gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ =
        std::make_unique<CorpusScenario>(std::move(scenario).ValueOrDie());
  }

  static SystemOptions Options() {
    SystemOptions opts;
    opts.top_h.h = 25;
    return opts;
  }

  /// Registers every scenario document on `sys`.
  void AddAll(UncertainMatchingSystem* sys) const {
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      ASSERT_TRUE(
          sys->AddDocument(scenario_->names[i], scenario_->documents[i].get())
              .ok());
    }
  }

  /// Brute-force expectation: per-document single-shot Query on a fresh
  /// uncached system, collapsed and merged exactly like the corpus path
  /// claims to. The per-twig per-document collapses are memoized — the
  /// oracle system is prepared once and the answers are deterministic.
  std::vector<CorpusAnswer> BruteMerge(const std::string& twig, int k) {
    auto it = brute_collapsed_.find(twig);
    if (it == brute_collapsed_.end()) {
      if (oracle_ == nullptr) {
        SystemOptions opts = Options();
        opts.cache.enable_result_cache = false;
        oracle_ = std::make_unique<UncertainMatchingSystem>(opts);
        EXPECT_TRUE(oracle_
                        ->Prepare(scenario_->dataset.source.get(),
                                  scenario_->dataset.target.get())
                        .ok());
      }
      std::vector<std::vector<CorpusAnswer>> per_document;
      for (size_t i = 0; i < scenario_->documents.size(); ++i) {
        EXPECT_TRUE(
            oracle_->AttachDocument(scenario_->documents[i].get()).ok());
        auto r = oracle_->Query(twig);
        EXPECT_TRUE(r.ok()) << r.status();
        per_document.push_back(CollapseForCorpus(scenario_->names[i], *r));
      }
      it = brute_collapsed_.emplace(twig, std::move(per_document)).first;
    }
    return MergeTopK(it->second, k);
  }

  static void ExpectSameAnswers(const std::vector<CorpusAnswer>& got,
                                const std::vector<CorpusAnswer>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].document, want[i].document) << "answer " << i;
      EXPECT_DOUBLE_EQ(got[i].probability, want[i].probability)
          << "answer " << i;
      EXPECT_EQ(got[i].matches, want[i].matches) << "answer " << i;
    }
  }

  std::unique_ptr<CorpusScenario> scenario_;
  std::unique_ptr<UncertainMatchingSystem> oracle_;
  std::map<std::string, std::vector<std::vector<CorpusAnswer>>>
      brute_collapsed_;
};

TEST_F(CorpusSystemTest, RequiresPrepare) {
  UncertainMatchingSystem sys(Options());
  EXPECT_FALSE(
      sys.AddDocument("a", scenario_->documents[0].get()).ok());
  EXPECT_FALSE(sys.QueryCorpus("Order").ok());
}

TEST_F(CorpusSystemTest, EmptyCorpusAnswersNothing) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  auto r = sys.QueryCorpus(TableIIIQueries()[0]);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->answers.empty());
  EXPECT_EQ(r->documents_evaluated, 0);
}

// The acceptance property: the corpus top-k over N generated documents
// equals the brute-force merge of per-document single-shot Query results,
// for every Table III query, with and without the k cut.
TEST_F(CorpusSystemTest, QueryCorpusEqualsBruteForceMergeOfSingleQueries) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  ASSERT_EQ(sys.corpus_size(), scenario_->documents.size());
  for (const std::string& twig : TableIIIQueries()) {
    for (const int k : {0, 1, 3}) {
      CorpusQueryOptions opts;
      opts.top_k = k;
      auto got = sys.QueryCorpus(twig, opts);
      ASSERT_TRUE(got.ok()) << twig << ": " << got.status();
      EXPECT_EQ(got->documents_evaluated,
                static_cast<int>(scenario_->documents.size()));
      ExpectSameAnswers(got->answers, BruteMerge(twig, k));
    }
  }
}

TEST_F(CorpusSystemTest, SingleDocumentCorpusMatchesSingleShotQuery) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  ASSERT_TRUE(
      sys.AddDocument("only", scenario_->documents[0].get()).ok());
  ASSERT_TRUE(sys.AttachDocument(scenario_->documents[0].get()).ok());
  for (const std::string& twig : TableIIIQueries()) {
    auto single = sys.Query(twig);
    ASSERT_TRUE(single.ok()) << single.status();
    CorpusQueryOptions opts;
    opts.top_k = 0;
    auto corpus = sys.QueryCorpus(twig, opts);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    ExpectSameAnswers(corpus->answers, CollapseForCorpus("only", *single));
  }
}

TEST_F(CorpusSystemTest, DocumentFilterRestrictsAndValidates) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  const std::string twig = TableIIIQueries()[0];
  CorpusQueryOptions subset;
  subset.top_k = 0;
  subset.documents = {scenario_->names[2], scenario_->names[0],
                      scenario_->names[2]};  // unordered, duplicated
  auto got = sys.QueryCorpus(twig, subset);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->documents_evaluated, 2);
  for (const CorpusAnswer& a : got->answers) {
    EXPECT_TRUE(a.document == scenario_->names[0] ||
                a.document == scenario_->names[2]);
  }
  CorpusQueryOptions unknown;
  unknown.documents = {"no-such-doc"};
  EXPECT_TRUE(sys.QueryCorpus(twig, unknown).status().IsNotFound());
}

TEST_F(CorpusSystemTest, RemoveDocumentExcludesItFromLaterQueries) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  const std::string twig = TableIIIQueries()[0];
  CorpusQueryOptions opts;
  opts.top_k = 0;
  ASSERT_TRUE(sys.QueryCorpus(twig, opts).ok());  // warm the cache
  ASSERT_TRUE(sys.RemoveDocument(scenario_->names[1]).ok());
  EXPECT_TRUE(sys.RemoveDocument(scenario_->names[1]).IsNotFound());
  auto after = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->documents_evaluated,
            static_cast<int>(scenario_->documents.size()) - 1);
  for (const CorpusAnswer& a : after->answers) {
    EXPECT_NE(a.document, scenario_->names[1]);
  }
  // Re-adding under the same name serves again — with correct answers.
  ASSERT_TRUE(
      sys.AddDocument(scenario_->names[1], scenario_->documents[1].get())
          .ok());
  auto readded = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(readded.ok());
  ExpectSameAnswers(readded->answers, BruteMerge(twig, 0));
}

TEST_F(CorpusSystemTest, RepeatedCorpusQueriesHitTheResultCache) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  const std::vector<std::string> twigs = {TableIIIQueries()[0],
                                          TableIIIQueries()[4]};
  auto cold = sys.RunCorpusBatch(twigs);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->report.result_cache_hits, 0);
  auto warm = sys.RunCorpusBatch(twigs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->report.result_cache_hits,
            static_cast<int>(twigs.size() * scenario_->documents.size()));
  // Corpus runs report the (per-item) pair's compiler stats too.
  EXPECT_GT(warm->report.compiler.entries, 0u);
  for (size_t q = 0; q < twigs.size(); ++q) {
    ASSERT_TRUE(cold->answers[q].ok());
    ASSERT_TRUE(warm->answers[q].ok());
    ExpectSameAnswers(warm->answers[q]->answers, cold->answers[q]->answers);
  }
}

TEST_F(CorpusSystemTest, CorpusMembershipChangesKeepSingleDocCacheWarm) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  ASSERT_TRUE(sys.AttachDocument(scenario_->documents[0].get()).ok());
  const std::string twig = TableIIIQueries()[0];
  ASSERT_TRUE(sys.Query(twig).ok());  // warm the attached-document entry
  ASSERT_TRUE(sys.Query(twig).ok());
  const uint64_t hits_before = sys.result_cache_stats().hits;
  EXPECT_GT(hits_before, 0u);
  // Growing or shrinking the corpus must not perturb the attached
  // document's cache keys: the same query stays a hit.
  ASSERT_TRUE(
      sys.AddDocument("x", scenario_->documents[1].get()).ok());
  ASSERT_TRUE(sys.Query(twig).ok());
  EXPECT_EQ(sys.result_cache_stats().hits, hits_before + 1);
  ASSERT_TRUE(sys.RemoveDocument("x").ok());
  ASSERT_TRUE(sys.Query(twig).ok());
  EXPECT_EQ(sys.result_cache_stats().hits, hits_before + 2);
}

TEST_F(CorpusSystemTest, PerTwigFailuresErrorOnlyTheirSlot) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  auto response = sys.RunCorpusBatch(
      {TableIIIQueries()[0], "[[[not a twig", TableIIIQueries()[1]});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->answers.size(), 3u);
  EXPECT_TRUE(response->answers[0].ok());
  EXPECT_TRUE(response->answers[1].status().IsParseError());
  EXPECT_TRUE(response->answers[2].ok());
}

TEST_F(CorpusSystemTest, RePrepareRebindsItsPairAndKeepsOtherPairs) {
  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  AddAll(&sys);
  const std::string twig = TableIIIQueries()[0];
  CorpusQueryOptions opts;
  opts.top_k = 0;
  ASSERT_TRUE(sys.QueryCorpus(twig, opts).ok());  // warm caches

  // Re-preparing from the same schemas re-binds the corpus to the new
  // pair incarnation and must keep answering exactly — the fresh epoch
  // stamps and pair id make every pre-swap cache entry unreachable
  // rather than stale.
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  EXPECT_EQ(sys.pair_count(), 1u);
  EXPECT_EQ(sys.corpus_size(), scenario_->documents.size());
  auto again = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(again.ok());
  ExpectSameAnswers(again->answers, BruteMerge(twig, 0));

  // Preparing a different schema pair REGISTERS a second pair: the
  // existing registrations stay bound to theirs and keep answering
  // (multi-schema corpus), while single-document calls now target the
  // new default pair.
  auto other = LoadDataset("D1");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(
      sys.Prepare(other->source.get(), other->target.get()).ok());
  EXPECT_EQ(sys.pair_count(), 2u);
  EXPECT_EQ(sys.corpus_size(), scenario_->documents.size());
  auto across = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(across.ok());
  ExpectSameAnswers(across->answers, BruteMerge(twig, 0));
  // Both pairs stay addressable by their schema identities.
  EXPECT_NE(sys.prepared_pair(scenario_->dataset.source.get(),
                              scenario_->dataset.target.get()),
            nullptr);
  EXPECT_EQ(sys.prepared_pair(), sys.prepared_pair(other->source.get(),
                                                   other->target.get()));
}

// The heterogeneous acceptance property: a corpus spanning TWO prepared
// schema pairs answers exactly the brute-force merge of per-document
// single-shot queries, each run on a single-pair oracle system prepared
// for that document's own pair.
TEST_F(CorpusSystemTest, MultiSchemaCorpusEqualsBruteForcePerPairMerge) {
  auto other = LoadDataset("D1");
  ASSERT_TRUE(other.ok());
  Document other_doc = GenerateDocument(
      *other->source, DocGenOptions{.seed = 5, .target_nodes = 120});

  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  ASSERT_TRUE(sys.Prepare(other->source.get(), other->target.get()).ok());
  EXPECT_EQ(sys.pair_count(), 2u);
  // D7-sourced documents bind to the D7 pair via the explicit overload;
  // the D1-sourced document joins the same corpus under the D1 pair.
  for (size_t i = 0; i < scenario_->documents.size(); ++i) {
    ASSERT_TRUE(sys.AddDocument(scenario_->names[i],
                                scenario_->documents[i].get(),
                                scenario_->dataset.source.get(),
                                scenario_->dataset.target.get())
                    .ok());
  }
  ASSERT_TRUE(sys.AddDocument("zz-other", &other_doc).ok());  // default pair
  ASSERT_EQ(sys.corpus_size(), scenario_->documents.size() + 1);
  // Pair inference: the 2-arg overload routes a D7-sourced document to
  // the registered D7 pair even though the default pair is now D1
  // (removed again so the oracle comparison below stays exact).
  ASSERT_TRUE(sys.AddDocument("inferred", scenario_->documents[0].get()).ok());
  ASSERT_TRUE(sys.RemoveDocument("inferred").ok());
  EXPECT_TRUE(sys.AddDocument("bad", &other_doc,
                              scenario_->dataset.source.get(),
                              other->target.get())
                  .IsNotFound());  // unregistered (source, target) combo

  // Oracle: one single-pair system per pair, uncached.
  SystemOptions oracle_opts = Options();
  oracle_opts.cache.enable_result_cache = false;
  UncertainMatchingSystem oracle_d1(oracle_opts);
  ASSERT_TRUE(
      oracle_d1.Prepare(other->source.get(), other->target.get()).ok());
  ASSERT_TRUE(oracle_d1.AttachDocument(&other_doc).ok());

  // Twigs over both target schemas: Table III (D7's target) plus probes
  // of D1's target labels.
  std::vector<std::string> twigs = {TableIIIQueries()[0],
                                    TableIIIQueries()[4]};
  for (SchemaNodeId t : {1, 3}) {
    twigs.push_back("//" + other->target->name(
                               static_cast<SchemaNodeId>(t)));
  }
  size_t nonempty = 0;
  for (const std::string& twig : twigs) {
    for (const int k : {0, 1, 5}) {
      (void)BruteMerge(twig, 0);  // fill the D7 memo for this twig
      std::vector<std::vector<CorpusAnswer>> per_document =
          brute_collapsed_[twig];
      auto r1 = oracle_d1.Query(twig);
      ASSERT_TRUE(r1.ok()) << twig << ": " << r1.status();
      per_document.push_back(CollapseForCorpus("zz-other", *r1));
      const std::vector<CorpusAnswer> want = MergeTopK(per_document, k);
      CorpusQueryOptions opts;
      opts.top_k = k;
      auto got = sys.QueryCorpus(twig, opts);
      ASSERT_TRUE(got.ok()) << twig << ": " << got.status();
      EXPECT_EQ(got->documents_evaluated,
                static_cast<int>(scenario_->documents.size()) + 1);
      ExpectSameAnswers(got->answers, want);
      nonempty += want.size();
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(nonempty, 0u);
}

// The 2-arg AddDocument inference contract (core/system.h): full source-
// schema conformance beats partial, the default pair wins ties within a
// tier, a non-default tie is InvalidArgument naming the candidates, and
// a document conforming to no registered source is NotFound.
TEST_F(CorpusSystemTest, TwoArgAddDocumentInfersPairFromDocument) {
  auto d1 = LoadDataset("D1");
  ASSERT_TRUE(d1.ok());
  Document d1_doc = GenerateDocument(
      *d1->source, DocGenOptions{.seed = 11, .target_nodes = 80});

  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  ASSERT_TRUE(sys.Prepare(d1->source.get(), d1->target.get()).ok());
  // Default pair is D1, yet a D7-sourced document infers the D7 pair and
  // a D1-sourced one keeps resolving to the default.
  ASSERT_TRUE(sys.AddDocument("d7-doc", scenario_->documents[0].get()).ok());
  ASSERT_TRUE(sys.AddDocument("d1-doc", &d1_doc).ok());
  EXPECT_EQ(sys.corpus_size(), 2u);

  // A document whose root label no registered source knows binds to
  // nothing: NotFound, and the corpus is untouched.
  Document alien;
  alien.AddChild(alien.AddRoot("no-such-label-anywhere"), "child");
  alien.Finalize();
  EXPECT_TRUE(sys.AddDocument("alien", &alien).IsNotFound());
  EXPECT_EQ(sys.corpus_size(), 2u);

  // Two pairs share D7's source schema and neither is the default (D1 is
  // re-prepared last): a D7 document now fully conforms to both, and the
  // tie is InvalidArgument naming both candidates. The second target is a
  // node-by-node clone of D7's target — identical labels (so the matcher
  // finds the same correspondences) but a distinct Schema object, hence a
  // distinct (source, target) pair key.
  const Schema& d7_target = *scenario_->dataset.target;
  auto target_clone = std::make_shared<Schema>("d7-target-clone");
  target_clone->AddRoot(d7_target.name(0));
  for (SchemaNodeId id = 1; id < d7_target.size(); ++id) {
    target_clone->AddChild(d7_target.node(id).parent, d7_target.name(id));
  }
  target_clone->Finalize();
  ASSERT_TRUE(
      sys.Prepare(scenario_->dataset.source.get(), target_clone.get()).ok());
  ASSERT_TRUE(sys.Prepare(d1->source.get(), d1->target.get()).ok());
  EXPECT_EQ(sys.pair_count(), 3u);
  const Status ambiguous =
      sys.AddDocument("d7-doc-2", scenario_->documents[1].get());
  EXPECT_TRUE(ambiguous.IsInvalidArgument()) << ambiguous;
  // Disambiguation through the 4-arg overload still works.
  EXPECT_TRUE(sys.AddDocument("d7-doc-2", scenario_->documents[1].get(),
                              scenario_->dataset.source.get(),
                              scenario_->dataset.target.get())
                  .ok());
}

// ------------------------------------------------- tracker guards

// k <= 0 used to be undefined behavior (full() true over an empty heap);
// the tracker now defends itself: it holds nothing, is never full, and
// its threshold is 0.0 — which never prunes, because pruning requires a
// bound strictly below threshold - slack and bounds are >= 0.
TEST(TopKTrackerTest, NonPositiveKHoldsNothingAndNeverPrunes) {
  for (const int k : {0, -1, -100}) {
    TopKTracker tracker(k);
    EXPECT_FALSE(tracker.full()) << "k=" << k;
    EXPECT_EQ(tracker.kth_probability(), 0.0) << "k=" << k;
    tracker.Push(0.9);
    tracker.Push(0.5);
    EXPECT_FALSE(tracker.full()) << "k=" << k;
    EXPECT_EQ(tracker.kth_probability(), 0.0) << "k=" << k;
  }
}

TEST(TopKTrackerTest, TracksTheKthBestProbability) {
  TopKTracker tracker(2);
  EXPECT_FALSE(tracker.full());
  EXPECT_EQ(tracker.kth_probability(), 0.0);  // empty: threshold floor
  tracker.Push(0.25);
  EXPECT_FALSE(tracker.full());
  tracker.Push(0.75);
  EXPECT_TRUE(tracker.full());
  EXPECT_DOUBLE_EQ(tracker.kth_probability(), 0.25);
  tracker.Push(0.5);  // displaces the 0.25
  EXPECT_DOUBLE_EQ(tracker.kth_probability(), 0.5);
  tracker.Push(0.1);  // below the 2nd best: ignored
  EXPECT_DOUBLE_EQ(tracker.kth_probability(), 0.5);
}

// ------------------------------------------------- bounded scheduling

// The deterministic bound-driven pruning scenario: a skewed multi-pair
// corpus where hot documents answer with probability ~1 and every cold
// pair's answer upper bound is ~0.11. With a single worker the claim
// order is the bound order, so the scheduler's accounting is exact: the
// hot documents evaluate and every cold document is pruned unevaluated —
// while the answers stay bit-identical to the exhaustive fan-out. (Aborts
// need a second worker: an item can only be cancelled in flight when
// another slot raises the threshold while it runs.)
TEST(BoundedCorpusTest, SkewedCorpusPrunesAbortsAndMatchesExhaustive) {
  SkewedCorpusOptions gen;
  gen.hot_documents = 2;
  gen.cold_pairs = 2;
  gen.cold_documents_per_pair = 5;
  gen.doc_target_nodes = 60;
  auto scenario = MakeSkewedCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  SystemOptions opts;
  opts.top_h.h = 30;  // cover the cold pairs' 24-mapping spaces
  opts.cache.enable_result_cache = false;  // measure scheduling, not hits
  opts.corpus_shards = 1;  // one scheduler => the accounting below
  UncertainMatchingSystem sys(opts);
  for (const SkewedPair& pair : scenario->pairs) {
    ASSERT_TRUE(sys.PrepareFromMatching(pair.matching).ok());
  }
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    const SkewedPair& pair =
        scenario->pairs[static_cast<size_t>(scenario->doc_pair[i])];
    ASSERT_TRUE(sys.AddDocument(scenario->names[i],
                                scenario->documents[i].get(),
                                pair.source.get(), scenario->target.get())
                    .ok());
  }
  ASSERT_EQ(sys.corpus_size(), 12u);

  BatchRunOptions run;
  run.num_threads = 1;  // sequential claims => deterministic accounting
  CorpusQueryOptions bounded;
  bounded.top_k = 1;
  auto b = sys.RunCorpusBatch({scenario->probe_twig}, bounded, run);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();

  // The one claim loop claims in bound order (2 hot, then 10 cold). The
  // first hot document fills the top-1 and raises the threshold to ~1.0;
  // the second hot document ties the bound and still evaluates; each of
  // the 10 cold items (bound ~0.11) is pruned at its own claim, so none
  // is evaluated or aborted.
  EXPECT_EQ(b->corpus.items_total, 12);
  EXPECT_EQ(b->corpus.items_evaluated, 2);
  EXPECT_EQ(b->corpus.items_aborted, 0);
  EXPECT_EQ(b->corpus.items_pruned, 10);
  EXPECT_EQ(b->report.items_aborted, 0);  // the driver cancelled nothing
  const CorpusQueryResult& result = *b->answers[0];
  EXPECT_EQ(result.documents_evaluated, 12);
  EXPECT_EQ(result.documents_aborted, 0);
  EXPECT_EQ(result.documents_pruned, 10);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].document, "hot-00");
  EXPECT_NEAR(result.answers[0].probability, 1.0, 1e-9);

  // Exhaustive oracle: identical answers, zero skipping.
  CorpusQueryOptions exhaustive = bounded;
  exhaustive.bounded = false;
  auto e = sys.RunCorpusBatch({scenario->probe_twig}, exhaustive, run);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->answers[0].ok());
  EXPECT_EQ(e->corpus.items_evaluated, 12);
  EXPECT_EQ(e->corpus.items_pruned, 0);
  ASSERT_EQ(e->answers[0]->answers.size(), result.answers.size());
  for (size_t i = 0; i < result.answers.size(); ++i) {
    EXPECT_EQ(e->answers[0]->answers[i].document,
              result.answers[i].document);
    EXPECT_DOUBLE_EQ(e->answers[0]->answers[i].probability,
                     result.answers[i].probability);
    EXPECT_EQ(e->answers[0]->answers[i].matches, result.answers[i].matches);
  }

  // A larger k that cold answers CAN reach must evaluate them: with
  // k = 3 only 2 answers have probability ~1, so the third-best comes
  // from a cold document and nothing may be pruned prematurely.
  CorpusQueryOptions k3 = bounded;
  k3.top_k = 3;
  auto b3 = sys.RunCorpusBatch({scenario->probe_twig}, k3, run);
  auto e3 = sys.RunCorpusBatch({scenario->probe_twig},
                               [&] {
                                 CorpusQueryOptions o = k3;
                                 o.bounded = false;
                                 return o;
                               }(),
                               run);
  ASSERT_TRUE(b3.ok());
  ASSERT_TRUE(e3.ok());
  ASSERT_TRUE(b3->answers[0].ok());
  ASSERT_TRUE(e3->answers[0].ok());
  ASSERT_EQ(b3->answers[0]->answers.size(), e3->answers[0]->answers.size());
  for (size_t i = 0; i < b3->answers[0]->answers.size(); ++i) {
    EXPECT_EQ(b3->answers[0]->answers[i].document,
              e3->answers[0]->answers[i].document);
    EXPECT_DOUBLE_EQ(b3->answers[0]->answers[i].probability,
                     e3->answers[0]->answers[i].probability);
    EXPECT_EQ(b3->answers[0]->answers[i].matches,
              e3->answers[0]->answers[i].matches);
  }
}

// Parse errors surface identically through the bounded scheduler (the
// compile happens in its bound phase, before any dispatch).
TEST(BoundedCorpusTest, ParseErrorsFailOnlyTheirSlot) {
  SkewedCorpusOptions gen;
  gen.hot_documents = 1;
  gen.cold_pairs = 1;
  gen.cold_documents_per_pair = 1;
  gen.doc_target_nodes = 40;
  auto scenario = MakeSkewedCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok());
  SystemOptions opts;
  opts.top_h.h = 30;
  UncertainMatchingSystem sys(opts);
  for (const SkewedPair& pair : scenario->pairs) {
    ASSERT_TRUE(sys.PrepareFromMatching(pair.matching).ok());
  }
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    const SkewedPair& pair =
        scenario->pairs[static_cast<size_t>(scenario->doc_pair[i])];
    ASSERT_TRUE(sys.AddDocument(scenario->names[i],
                                scenario->documents[i].get(),
                                pair.source.get(), scenario->target.get())
                    .ok());
  }
  CorpusQueryOptions k1;
  k1.top_k = 1;  // bounded path
  auto response = sys.RunCorpusBatch(
      {scenario->probe_twig, "[[[not a twig", scenario->probe_twig}, k1);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->answers.size(), 3u);
  EXPECT_TRUE(response->answers[0].ok());
  EXPECT_TRUE(response->answers[1].status().IsParseError());
  EXPECT_TRUE(response->answers[2].ok());
}

// ---------------------------------------- document-sensitive bounds

/// The run-report invariant every bounded run must satisfy: each
/// (twig, document) item lands in exactly one disposition bucket.
void ExpectItemInvariant(const CorpusRunReport& r) {
  EXPECT_EQ(r.items_total, r.items_evaluated + r.items_pruned +
                               r.items_aborted + r.items_failed);
  EXPECT_LE(r.items_aborted_in_kernel, r.items_aborted);
  EXPECT_GE(r.items_evaluated, 0);
  EXPECT_GE(r.items_pruned, 0);
  EXPECT_GE(r.items_aborted, 0);
  EXPECT_GE(r.items_failed, 0);
}

/// The sharded run-report invariant: one report per shard, each holding
/// the disposition invariant, summing field by field to the aggregate.
void ExpectShardSums(const CorpusBatchResponse& r, int shards) {
  ASSERT_EQ(r.shard_reports.size(), static_cast<size_t>(shards));
  CorpusRunReport sum;
  for (const CorpusRunReport& shard : r.shard_reports) {
    ExpectItemInvariant(shard);
    sum.items_total += shard.items_total;
    sum.items_evaluated += shard.items_evaluated;
    sum.items_pruned += shard.items_pruned;
    sum.items_aborted += shard.items_aborted;
    sum.items_aborted_in_kernel += shard.items_aborted_in_kernel;
    sum.items_failed += shard.items_failed;
    sum.dispatches += shard.dispatches;
  }
  EXPECT_EQ(sum.items_total, r.corpus.items_total);
  EXPECT_EQ(sum.items_evaluated, r.corpus.items_evaluated);
  EXPECT_EQ(sum.items_pruned, r.corpus.items_pruned);
  EXPECT_EQ(sum.items_aborted, r.corpus.items_aborted);
  EXPECT_EQ(sum.items_aborted_in_kernel, r.corpus.items_aborted_in_kernel);
  EXPECT_EQ(sum.items_failed, r.corpus.items_failed);
  EXPECT_EQ(sum.dispatches, r.corpus.dispatches);
}

void ExpectSameAnswers(const std::vector<CorpusAnswer>& got,
                       const std::vector<CorpusAnswer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].document, want[i].document) << "answer " << i;
    EXPECT_DOUBLE_EQ(got[i].probability, want[i].probability)
        << "answer " << i;
    EXPECT_EQ(got[i].matches, want[i].matches) << "answer " << i;
  }
}

class SinglePairCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 8;  // more than top-5: the threshold fills
    gen.cold_documents = 24;
    gen.doc_target_nodes = 120;
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  /// `shards` is SystemOptions::corpus_shards (0 = the host default).
  static SystemOptions Options(bool bound_cache, int shards) {
    SystemOptions opts;
    opts.top_h.h = 16;  // the pair's 12-mapping space, fully enumerated
    opts.cache.enable_result_cache = false;  // measure scheduling, not hits
    opts.cache.enable_bound_cache = bound_cache;
    opts.corpus_shards = shards;
    return opts;
  }

  std::unique_ptr<UncertainMatchingSystem> MakeSystem(bool bound_cache,
                                                      int shards = 0) {
    auto sys = std::make_unique<UncertainMatchingSystem>(
        Options(bound_cache, shards));
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get())
                      .ok());
    }
    return sys;
  }

  static BatchRunOptions OneThread() {
    BatchRunOptions run;
    run.num_threads = 1;  // sequential claims => deterministic accounting
    return run;
  }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

// The headline property of this PR: a HOMOGENEOUS corpus (every document
// under one pair, hence one shared pair-level bound) prunes, because the
// document-sensitive probe sees that cold documents contain no `gold`
// element and collapses their bounds to the dust-route mass. With one
// worker the accounting is deterministic: the 8 hot documents are claimed
// first (their bounds are highest); after the 5th the threshold is the
// hot answer mass, which the remaining 3 hot bounds tie (so they still
// evaluate) and every cold bound falls below, so all 24 cold items are
// pruned at their claims.
TEST_F(SinglePairCorpusTest, DocumentBoundsPruneAHomogeneousCorpus) {
  auto sys = MakeSystem(/*bound_cache=*/true, /*shards=*/1);
  CorpusQueryOptions bounded;
  bounded.top_k = 5;
  auto b = sys->RunCorpusBatch({scenario_->probe_twig}, bounded, OneThread());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();
  ExpectItemInvariant(b->corpus);
  EXPECT_EQ(b->corpus.items_total, 32);
  EXPECT_EQ(b->corpus.items_evaluated, 8);
  EXPECT_EQ(b->corpus.items_pruned, 24);
  EXPECT_EQ(b->corpus.items_aborted, 0);
  EXPECT_EQ(b->corpus.items_failed, 0);
  const CorpusQueryResult& result = *b->answers[0];
  EXPECT_EQ(result.documents_evaluated, 32);
  EXPECT_EQ(result.documents_pruned, 24);
  ASSERT_EQ(result.answers.size(), 5u);
  for (const CorpusAnswer& a : result.answers) {
    EXPECT_EQ(a.document.substr(0, 4), "hot-") << a.document;
  }

  // The bound cache saw one miss (and one probe insert) per item, plus a
  // realized-bound insert per evaluated item.
  const BoundCacheStats cold_stats = sys->bound_cache_stats();
  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_EQ(cold_stats.misses, 32u);
  EXPECT_EQ(cold_stats.entries, 32u);

  // Exhaustive oracle: identical answers, zero skipping.
  CorpusQueryOptions exhaustive = bounded;
  exhaustive.bounded = false;
  auto e = sys->RunCorpusBatch({scenario_->probe_twig}, exhaustive,
                               OneThread());
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->answers[0].ok());
  EXPECT_EQ(e->corpus.items_evaluated, 32);
  EXPECT_EQ(e->corpus.items_pruned, 0);
  ExpectSameAnswers(e->answers[0]->answers, result.answers);

  // A second bounded run consults the cached bounds (all 32 keys hit) and
  // schedules identically: the realized hot bounds tie the threshold, so
  // nothing more can be pruned, and the answers stay bit-identical.
  auto again =
      sys->RunCorpusBatch({scenario_->probe_twig}, bounded, OneThread());
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->answers[0].ok());
  ExpectItemInvariant(again->corpus);
  EXPECT_EQ(again->corpus.items_evaluated, 8);
  EXPECT_EQ(again->corpus.items_pruned, 24);
  ExpectSameAnswers(again->answers[0]->answers, result.answers);
  EXPECT_GE(sys->bound_cache_stats().hits, 32u);
}

// The pre-PR baseline, reproduced on demand: with the bound cache off and
// the probe disabled, every document shares the one pair-level bound and
// the scheduler provably cannot prune a homogeneous corpus.
TEST_F(SinglePairCorpusTest, PairLevelBoundsAloneNeverPruneHomogeneous) {
  auto sys = MakeSystem(/*bound_cache=*/false);
  CorpusQueryOptions bounded;
  bounded.top_k = 5;
  bounded.probe_bounds = false;
  auto b = sys->RunCorpusBatch({scenario_->probe_twig}, bounded, OneThread());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(b->answers[0].ok());
  ExpectItemInvariant(b->corpus);
  EXPECT_EQ(b->corpus.items_total, 32);
  EXPECT_EQ(b->corpus.items_evaluated, 32);
  EXPECT_EQ(b->corpus.items_pruned, 0);
  EXPECT_EQ(b->corpus.items_aborted, 0);
}

// A twig that fails to parse charges its whole document count to
// items_failed and the counter invariant still holds for the batch —
// while the healthy twigs of the same shared pool run to completion.
TEST_F(SinglePairCorpusTest, FailedTwigChargesItsItemsAndKeepsInvariant) {
  auto sys = MakeSystem(/*bound_cache=*/true, /*shards=*/1);
  CorpusQueryOptions bounded;
  bounded.top_k = 5;
  auto b = sys->RunCorpusBatch(
      {scenario_->probe_twig, "[[[not a twig", scenario_->deep_probe_twig},
      bounded, OneThread());
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(b->answers.size(), 3u);
  EXPECT_TRUE(b->answers[0].ok());
  EXPECT_TRUE(b->answers[1].status().IsParseError());
  EXPECT_TRUE(b->answers[2].ok());
  ExpectItemInvariant(b->corpus);
  EXPECT_EQ(b->corpus.items_total, 96);
  EXPECT_EQ(b->corpus.items_failed, 32);  // the failed twig's documents
  EXPECT_EQ(b->corpus.items_evaluated, 16);
  EXPECT_EQ(b->corpus.items_pruned, 48);
  // Both healthy twigs answered from hot documents (their answer masses
  // differ: the two-node twig restricts relevance to mappings that also
  // map Bin).
  ASSERT_EQ(b->answers[2]->answers.size(), 5u);
  for (const CorpusAnswer& a : b->answers[2]->answers) {
    EXPECT_EQ(a.document.substr(0, 4), "hot-") << a.document;
  }
}

// The three S = 1 tests above, run at S = 2 and 4. S only labels items
// for shard_reports, so these pin what S must not change: the answers
// equal S = 1's, and every item lands in exactly one bucket of exactly
// one shard.
constexpr int kShardCounts[] = {2, 4};

TEST_F(SinglePairCorpusTest, ShardedDocumentBoundsMatchSingleScheduler) {
  CorpusQueryOptions bounded;
  bounded.top_k = 5;
  auto single = MakeSystem(/*bound_cache=*/true, /*shards=*/1)
                    ->RunCorpusBatch({scenario_->probe_twig}, bounded,
                                     OneThread());
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_TRUE(single->answers[0].ok());
  for (const int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sys = MakeSystem(/*bound_cache=*/true, shards);
    // The second run consults the bounds the first one cached.
    for (int run = 0; run < 2; ++run) {
      auto b = sys->RunCorpusBatch({scenario_->probe_twig}, bounded,
                                   OneThread());
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();
      ExpectItemInvariant(b->corpus);
      EXPECT_EQ(b->corpus.items_total, 32);
      EXPECT_EQ(b->corpus.items_failed, 0);
      ExpectShardSums(*b, shards);
      ExpectSameAnswers(b->answers[0]->answers, single->answers[0]->answers);
    }
  }
}

TEST_F(SinglePairCorpusTest,
       ShardedFailedTwigChargesItsItemsAndKeepsInvariant) {
  const std::vector<std::string> twigs = {
      scenario_->probe_twig, "[[[not a twig", scenario_->deep_probe_twig};
  CorpusQueryOptions bounded;
  bounded.top_k = 5;
  auto single = MakeSystem(/*bound_cache=*/true, /*shards=*/1)
                    ->RunCorpusBatch(twigs, bounded, OneThread());
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_TRUE(single->answers[0].ok());
  ASSERT_TRUE(single->answers[2].ok());
  for (const int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto b = MakeSystem(/*bound_cache=*/true, shards)
                 ->RunCorpusBatch(twigs, bounded, OneThread());
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(b->answers.size(), 3u);
    ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();
    EXPECT_TRUE(b->answers[1].status().IsParseError());
    ASSERT_TRUE(b->answers[2].ok()) << b->answers[2].status();
    ExpectItemInvariant(b->corpus);
    EXPECT_EQ(b->corpus.items_total, 96);
    EXPECT_EQ(b->corpus.items_failed, 32);  // the failed twig's documents
    ExpectShardSums(*b, shards);
    ExpectSameAnswers(b->answers[0]->answers, single->answers[0]->answers);
    ExpectSameAnswers(b->answers[2]->answers, single->answers[2]->answers);
  }
}

// A one-document selection takes the same bounded path at every shard
// count: at S = 2 and 4 its lone non-empty slice runs on the caller
// thread, every shard still reports, and the answers equal S = 1's.
TEST_F(SinglePairCorpusTest,
       ShardedOneDocumentSelectionMatchesSingleScheduler) {
  const std::vector<std::string> twigs = {scenario_->probe_twig,
                                          scenario_->deep_probe_twig};
  // A hot document (answers) and a cold one (dust-route answers only).
  for (const std::string& name :
       {scenario_->names.front(), scenario_->names.back()}) {
    SCOPED_TRACE(name);
    CorpusQueryOptions bounded;
    bounded.top_k = 5;
    bounded.documents = {name};
    auto single = MakeSystem(/*bound_cache=*/true, /*shards=*/1)
                      ->RunCorpusBatch(twigs, bounded, OneThread());
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_TRUE(single->answers[0].ok()) << single->answers[0].status();
    ASSERT_TRUE(single->answers[1].ok()) << single->answers[1].status();
    EXPECT_TRUE(single->shard_reports.empty());
    ExpectItemInvariant(single->corpus);
    EXPECT_EQ(single->corpus.items_total, 2);
    for (const int shards : kShardCounts) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      auto b = MakeSystem(/*bound_cache=*/true, shards)
                   ->RunCorpusBatch(twigs, bounded, OneThread());
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();
      ASSERT_TRUE(b->answers[1].ok()) << b->answers[1].status();
      ExpectItemInvariant(b->corpus);
      EXPECT_EQ(b->corpus.items_total, 2);
      ExpectShardSums(*b, shards);
      int populated = 0;
      for (const CorpusRunReport& shard : b->shard_reports) {
        populated += shard.items_total > 0 ? 1 : 0;
      }
      EXPECT_EQ(populated, 1);
      ExpectSameAnswers(b->answers[0]->answers, single->answers[0]->answers);
      ExpectSameAnswers(b->answers[1]->answers, single->answers[1]->answers);
    }
  }
}

TEST(BoundedCorpusTest, ShardedSkewedCorpusMatchesSingleScheduler) {
  SkewedCorpusOptions gen;
  gen.hot_documents = 2;
  gen.cold_pairs = 2;
  gen.cold_documents_per_pair = 5;
  gen.doc_target_nodes = 60;
  auto scenario = MakeSkewedCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto make_system = [&](int shards) {
    SystemOptions opts;
    opts.top_h.h = 30;
    opts.cache.enable_result_cache = false;
    opts.corpus_shards = shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    for (const SkewedPair& pair : scenario->pairs) {
      EXPECT_TRUE(sys->PrepareFromMatching(pair.matching).ok());
    }
    for (size_t i = 0; i < scenario->documents.size(); ++i) {
      const SkewedPair& pair =
          scenario->pairs[static_cast<size_t>(scenario->doc_pair[i])];
      EXPECT_TRUE(sys->AddDocument(scenario->names[i],
                                   scenario->documents[i].get(),
                                   pair.source.get(), scenario->target.get())
                      .ok());
    }
    return sys;
  };
  BatchRunOptions run;
  run.num_threads = 1;
  auto single_sys = make_system(1);
  // k = 1 prunes cold documents; k = 3 must reach one.
  for (const int k : {1, 3}) {
    CorpusQueryOptions bounded;
    bounded.top_k = k;
    auto single =
        single_sys->RunCorpusBatch({scenario->probe_twig}, bounded, run);
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_TRUE(single->answers[0].ok());
    for (const int shards : kShardCounts) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " shards=" + std::to_string(shards));
      auto b = make_system(shards)->RunCorpusBatch({scenario->probe_twig},
                                                   bounded, run);
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_TRUE(b->answers[0].ok()) << b->answers[0].status();
      ExpectItemInvariant(b->corpus);
      EXPECT_EQ(b->corpus.items_total, 12);
      EXPECT_EQ(b->corpus.items_failed, 0);
      ExpectShardSums(*b, shards);
      ExpectSameAnswers(b->answers[0]->answers, single->answers[0]->answers);
    }
  }
}

// A mid-run evaluation failure (not a parse error: the document itself
// is broken) fails the twig with that document's status, and the twig's
// unevaluated leftovers are counted items_failed, so every item lands in
// exactly one bucket.
TEST(BoundedCorpusTest, MidWaveFailureChargesRemainingItemsAsFailed) {
  PaperExample example = MakePaperExample();
  auto bound =
      AnnotatedDocument::Bind(example.doc.get(), example.source.get());
  ASSERT_TRUE(bound.ok());
  auto annotated = std::make_shared<const AnnotatedDocument>(
      std::move(bound).ValueOrDie());
  auto pair = testutil::MakePaperPair(example);

  // Ten registrations of the one paper document; the name-first one has
  // no annotation, so its item fails with InvalidArgument when claimed.
  CorpusSnapshot corpus;
  corpus.push_back(
      CorpusDocument{"00-bad", example.doc.get(), nullptr, 1, pair});
  for (int i = 1; i < 10; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "doc-%02d", i);
    corpus.push_back(
        CorpusDocument{name, example.doc.get(), annotated, 1, pair});
  }

  ShardedCorpusSnapshot one_shard;
  one_shard.all = std::make_shared<const CorpusSnapshot>(std::move(corpus));
  one_shard.shards = {one_shard.all};

  BatchExecutorOptions exec_opts;
  exec_opts.num_threads = 1;
  BatchQueryExecutor executor(exec_opts);
  ShardedCorpusExecutor corpus_exec(&executor);
  CorpusQueryOptions bounded;
  bounded.top_k = 1;
  auto response =
      corpus_exec.Run(one_shard, {"//IP//ICN"}, bounded, /*cache=*/nullptr);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_TRUE(response->answers[0].status().IsInvalidArgument());
  ExpectItemInvariant(response->corpus);
  EXPECT_EQ(response->corpus.items_total, 10);
  // The broken document keeps its pair bound, which no healthy
  // document's probed bound exceeds, and ties keep name order, so it is
  // the first claim: it fails the twig, and each of the 9 healthy items
  // is then charged items_failed at its own claim.
  EXPECT_EQ(response->corpus.items_evaluated, 0);
  EXPECT_EQ(response->corpus.items_failed, 10);
  EXPECT_EQ(response->corpus.items_pruned, 0);
  EXPECT_EQ(response->corpus.items_aborted, 0);
}

// Bound-phase compile failures must be attributed deterministically:
// bounded and exhaustive report the same status for the same bad twig on
// a TWO-pair corpus, where the old memoization-order attribution could
// name whichever pair compiled first.
TEST(BoundedCorpusTest, CompileFailureReportingMatchesExhaustive) {
  SkewedCorpusOptions gen;
  gen.hot_documents = 2;
  gen.cold_pairs = 1;
  gen.cold_documents_per_pair = 2;
  gen.doc_target_nodes = 40;
  auto scenario = MakeSkewedCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok());
  SystemOptions opts;
  opts.top_h.h = 30;
  UncertainMatchingSystem sys(opts);
  for (const SkewedPair& pair : scenario->pairs) {
    ASSERT_TRUE(sys.PrepareFromMatching(pair.matching).ok());
  }
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    const SkewedPair& pair =
        scenario->pairs[static_cast<size_t>(scenario->doc_pair[i])];
    ASSERT_TRUE(sys.AddDocument(scenario->names[i],
                                scenario->documents[i].get(),
                                pair.source.get(), scenario->target.get())
                    .ok());
  }
  const std::vector<std::string> twigs = {scenario->probe_twig,
                                          "[[[not a twig"};
  CorpusQueryOptions bounded;
  bounded.top_k = 1;
  BatchRunOptions run;
  run.num_threads = 1;
  auto b = sys.RunCorpusBatch(twigs, bounded, run);
  CorpusQueryOptions exhaustive = bounded;
  exhaustive.bounded = false;
  auto e = sys.RunCorpusBatch(twigs, exhaustive, run);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(b->answers[0].ok());
  EXPECT_TRUE(e->answers[0].ok());
  const Status& bs = b->answers[1].status();
  const Status& es = e->answers[1].status();
  EXPECT_TRUE(bs.IsParseError());
  EXPECT_EQ(bs.code(), es.code());
  EXPECT_EQ(bs.message(), es.message());
  ExpectItemInvariant(b->corpus);
  EXPECT_EQ(b->corpus.items_failed, 4);  // the bad twig's whole corpus
}

// ------------------------------------------------------ pair removal

TEST_F(CorpusSystemTest, RemovePairDropsDocumentsCacheAndDefault) {
  auto other = LoadDataset("D1");
  ASSERT_TRUE(other.ok());
  Document other_doc = GenerateDocument(
      *other->source, DocGenOptions{.seed = 5, .target_nodes = 120});

  UncertainMatchingSystem sys(Options());
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  ASSERT_TRUE(sys.Prepare(other->source.get(), other->target.get()).ok());
  for (size_t i = 0; i < scenario_->documents.size(); ++i) {
    ASSERT_TRUE(sys.AddDocument(scenario_->names[i],
                                scenario_->documents[i].get(),
                                scenario_->dataset.source.get(),
                                scenario_->dataset.target.get())
                    .ok());
  }
  ASSERT_TRUE(sys.AddDocument("zz-other", &other_doc).ok());  // D1 default
  ASSERT_EQ(sys.pair_count(), 2u);
  ASSERT_EQ(sys.corpus_size(), scenario_->documents.size() + 1);

  // Unknown identity: NotFound, nothing changes.
  EXPECT_TRUE(sys.RemovePair(scenario_->dataset.source.get(),
                             other->target.get())
                  .IsNotFound());
  EXPECT_EQ(sys.pair_count(), 2u);

  const std::string twig = TableIIIQueries()[0];
  CorpusQueryOptions opts;
  opts.top_k = 0;
  ASSERT_TRUE(sys.QueryCorpus(twig, opts).ok());  // warm both pairs

  // Removing the D1 pair (the default): its document leaves the corpus,
  // its cache entries are swept, and single-document traffic reverts to
  // unprepared — but the corpus keeps answering through the surviving
  // D7 pair (corpus items carry their own pair, not the default).
  ASSERT_TRUE(sys.RemovePair(other->source.get(), other->target.get()).ok());
  EXPECT_TRUE(
      sys.RemovePair(other->source.get(), other->target.get()).IsNotFound());
  EXPECT_EQ(sys.pair_count(), 1u);
  EXPECT_EQ(sys.corpus_size(), scenario_->documents.size());
  EXPECT_FALSE(sys.prepared());
  EXPECT_EQ(sys.prepared_pair(), nullptr);
  EXPECT_FALSE(sys.Query(twig).ok());  // no default pair any more
  EXPECT_GE(sys.result_cache_stats().pair_sweeps, 1u);
  auto still = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(still.ok()) << still.status();
  ExpectSameAnswers(still->answers, BruteMerge(twig, 0));

  // Re-Preparing the surviving pair restores single-document service
  // and the corpus answers are unchanged.
  ASSERT_TRUE(sys.Prepare(scenario_->dataset.source.get(),
                          scenario_->dataset.target.get())
                  .ok());
  auto after = sys.QueryCorpus(twig, opts);
  ASSERT_TRUE(after.ok()) << after.status();
  ExpectSameAnswers(after->answers, BruteMerge(twig, 0));

  // Removing the last pair empties everything; with no pair registered
  // at all, even corpus queries are refused.
  ASSERT_TRUE(sys.RemovePair(scenario_->dataset.source.get(),
                             scenario_->dataset.target.get())
                  .ok());
  EXPECT_EQ(sys.pair_count(), 0u);
  EXPECT_EQ(sys.corpus_size(), 0u);
  EXPECT_FALSE(sys.prepared());
  EXPECT_FALSE(sys.QueryCorpus(twig, opts).ok());
}

}  // namespace
}  // namespace uxm

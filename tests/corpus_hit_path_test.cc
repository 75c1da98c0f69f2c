// The corpus result-cache hit path: a warm corpus query resolves its
// result-cache hits on the scheduler thread, straight from the cache
// entry's ranked match sets, and dispatches only its misses. These tests
// pin what that must not change — answers bit-identical between cold and
// warm runs at every shard count, thread count and scheduling mode, and
// equal to an independent sort-based oracle — and what it must deliver:
// a warm bounded run dispatches nothing, counts every inline hit, keeps
// the disposition invariant and its report samples, costs no evaluation
// credit under a budget, and keeps the cache's byte accounting honest
// (the ranked list is charged to, and freed with, its entry, and every
// heap block at least at the size the allocator holds for it). The
// proven-empty tests pin that items no mapping may match never leave the
// bound phase — pruned, not dispatched, not charged to a budget — with
// answers equal to the exhaustive path's.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cache/result_cache.h"
#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "plan/driver.h"
#include "plan/query_plan.h"
#include "shard/sharded_corpus_executor.h"
#include "shard/sharded_store.h"
#include "test_util.h"
#include "workload/corpus_generator.h"

namespace uxm {
namespace {

void ExpectSameAnswers(const std::vector<CorpusAnswer>& got,
                       const std::vector<CorpusAnswer>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].document, want[i].document) << label << " answer " << i;
    EXPECT_EQ(got[i].probability, want[i].probability)
        << label << " answer " << i;
    EXPECT_EQ(got[i].matches, want[i].matches) << label << " answer " << i;
  }
}

void ExpectItemInvariant(const CorpusRunReport& r, const std::string& label) {
  EXPECT_EQ(r.items_total, r.items_evaluated + r.items_pruned +
                               r.items_aborted + r.items_failed)
      << label;
}

/// The oracle, built without PtqResult::RankedMatchSets or any merge:
/// every document's collapsed non-empty match sets, tagged, fully sorted
/// by AnswerBefore and cut to k.
std::vector<CorpusAnswer> SortOracle(const std::vector<std::string>& names,
                                     const std::vector<PtqResult>& results,
                                     int k) {
  std::vector<CorpusAnswer> all;
  for (size_t d = 0; d < results.size(); ++d) {
    for (MappingAnswer& a : results[d].CollapseByMatches()) {
      if (a.matches.empty()) continue;
      all.push_back(CorpusAnswer{names[d], a.probability, std::move(a.matches)});
    }
  }
  std::sort(all.begin(), all.end(), AnswerBefore);
  if (k > 0 && all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

BatchRunOptions Threads(int n) {
  BatchRunOptions run;
  run.num_threads = n;
  return run;
}

// ------------------------------------------------------------ ranking

TEST(RankedMatchSetsTest, DropsEmptySetsAndBreaksTiesByMatchList) {
  PtqResult r;
  r.answers = {{0, 0.2, {3}},   {1, 0.1, {}},  {2, 0.2, {1, 5}},
               {3, 0.5, {9}},   {4, 0.2, {2}}, {5, 0.15, {3}},
               {6, 0.05, {}}};
  const RankedPtqResult entry(r);
  ASSERT_EQ(entry.ranked.size(), 4u);
  EXPECT_EQ(entry.ranked[0].matches, (std::vector<DocNodeId>{9}));
  EXPECT_NEAR(entry.ranked[1].probability, 0.35, 1e-12);  // {3}: .2 + .15
  EXPECT_EQ(entry.ranked[1].matches, (std::vector<DocNodeId>{3}));
  // The 0.2 tie: match lists ascending.
  EXPECT_EQ(entry.ranked[2].matches, (std::vector<DocNodeId>{1, 5}));
  EXPECT_EQ(entry.ranked[3].matches, (std::vector<DocNodeId>{2}));
  EXPECT_EQ(entry.result.answers.size(), r.answers.size());
}

// ----------------------------------------------- cold vs warm, sweep

class CorpusHitPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 8;
    gen.cold_documents = 24;
    gen.doc_target_nodes = 120;
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  /// A system over the whole corpus with every cache on.
  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int shards) const {
    SystemOptions opts;
    opts.top_h.h = 16;  // the pair's 12-mapping space, fully enumerated
    opts.corpus_shards = shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get())
                      .ok());
    }
    return sys;
  }

  std::vector<std::string> Twigs() const {
    return {scenario_->probe_twig, scenario_->deep_probe_twig};
  }

  /// Per-twig SortOracle over single-document queries on an uncached
  /// system.
  std::vector<std::vector<CorpusAnswer>> Oracle(int k) const {
    SystemOptions opts;
    opts.top_h.h = 16;
    opts.cache.enable_result_cache = false;
    UncertainMatchingSystem sys(opts);
    EXPECT_TRUE(sys.PrepareFromMatching(scenario_->matching).ok());
    std::vector<std::vector<PtqResult>> per_twig(Twigs().size());
    for (const auto& doc : scenario_->documents) {
      EXPECT_TRUE(sys.AttachDocument(doc.get()).ok());
      for (size_t t = 0; t < Twigs().size(); ++t) {
        auto r = sys.Query(Twigs()[t]);
        EXPECT_TRUE(r.ok()) << r.status();
        per_twig[t].push_back(r.ok() ? *r : PtqResult{});
      }
    }
    std::vector<std::vector<CorpusAnswer>> want;
    for (const auto& results : per_twig) {
      want.push_back(SortOracle(scenario_->names, results, k));
    }
    return want;
  }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

TEST_F(CorpusHitPathTest, ColdAndWarmRunsAreBitIdenticalEverywhere) {
  constexpr int kTopK = 5;
  const std::vector<std::vector<CorpusAnswer>> want = Oracle(kTopK);
  for (const auto& answers : want) ASSERT_EQ(answers.size(), size_t{kTopK});
  for (const int shards : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      for (const bool bounded : {true, false}) {
        const std::string label = "shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads) +
                                  " bounded=" + std::to_string(bounded);
        auto sys = MakeSystem(shards);
        CorpusQueryOptions options;
        options.top_k = kTopK;
        options.bounded = bounded;
        auto cold = sys->RunCorpusBatch(Twigs(), options, Threads(threads));
        auto warm = sys->RunCorpusBatch(Twigs(), options, Threads(threads));
        ASSERT_TRUE(cold.ok()) << label << ": " << cold.status();
        ASSERT_TRUE(warm.ok()) << label << ": " << warm.status();
        ExpectItemInvariant(cold->corpus, label + " cold");
        ExpectItemInvariant(warm->corpus, label + " warm");
        EXPECT_GT(warm->report.result_cache_hits, 0) << label;
        for (size_t t = 0; t < Twigs().size(); ++t) {
          ASSERT_TRUE(cold->answers[t].ok()) << label;
          ASSERT_TRUE(warm->answers[t].ok()) << label;
          ExpectSameAnswers(cold->answers[t]->answers, want[t],
                            label + " cold twig " + std::to_string(t));
          ExpectSameAnswers(warm->answers[t]->answers, want[t],
                            label + " warm twig " + std::to_string(t));
        }
      }
    }
  }
}

// A warm single-scheduler bounded run serves every item it does not
// prune from the cache on the scheduler thread: nothing is dispatched,
// and items_evaluated is exactly the inline hit count. Every item the
// cold run pruned or aborted (hence never cached) is pruned again — the
// answers that outranked it are folded, as inline hits, before its
// prune check — which also pins that each inline hit raises the
// threshold: an unpruned uncached item would be a miss, and dispatched.
TEST_F(CorpusHitPathTest, WarmBoundedRunDispatchesNothing) {
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    auto sys = MakeSystem(/*shards=*/1);
    CorpusQueryOptions options;
    options.top_k = 5;
    auto cold = sys->RunCorpusBatch(Twigs(), options, Threads(threads));
    ASSERT_TRUE(cold.ok()) << label;
    ASSERT_GT(cold->corpus.items_pruned + cold->corpus.items_aborted, 0)
        << label << ": the scenario must make the cold run skip items";
    auto warm = sys->RunCorpusBatch(Twigs(), options, Threads(threads));
    ASSERT_TRUE(warm.ok()) << label;
    const CorpusRunReport& c = warm->corpus;
    ExpectItemInvariant(c, label);
    EXPECT_EQ(c.items_total, static_cast<int>(Twigs().size() *
                                               scenario_->documents.size()))
        << label;
    EXPECT_EQ(c.dispatches, 0) << label;
    EXPECT_EQ(c.items_evaluated, warm->report.result_cache_hits) << label;
    // Inline folds raise the threshold item by item, so the warm run can
    // only skip more than the cold one did — never less.
    EXPECT_LE(c.items_evaluated, cold->corpus.items_evaluated) << label;
    EXPECT_GE(c.items_pruned,
              cold->corpus.items_pruned + cold->corpus.items_aborted)
        << label;
    EXPECT_EQ(c.items_aborted, 0) << label;
    EXPECT_EQ(warm->report.result_cache_misses, 0) << label;
    int dispatched = 0;
    for (const int n : warm->report.items_per_thread) dispatched += n;
    EXPECT_EQ(dispatched, 0) << label;
    // Nothing was dispatched, yet the cumulative samples are filled.
    EXPECT_GT(warm->report.compiler.entries, 0u) << label;
    EXPECT_GT(warm->report.result_cache.entries, 0u) << label;
    EXPECT_GE(warm->report.result_cache.hits,
              static_cast<uint64_t>(c.items_evaluated))
        << label;
    for (size_t t = 0; t < Twigs().size(); ++t) {
      ASSERT_TRUE(cold->answers[t].ok() && warm->answers[t].ok()) << label;
      ExpectSameAnswers(warm->answers[t]->answers, cold->answers[t]->answers,
                        label);
    }
  }
}

// Result-cache hits spend no evaluation credit: a warm single-scheduler
// run budgeted to a single kernel evaluation still returns the exact
// answer. (With S > 1 shards a shard may reach an uncached item before
// another shard's hits have raised the threshold that prunes it, so a
// warm sharded run may still need evaluations.)
TEST_F(CorpusHitPathTest, WarmRunUnderAOneEvaluationBudgetIsExact) {
  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    auto sys = MakeSystem(/*shards=*/1);
    CorpusQueryOptions options;
    options.top_k = 5;
    auto cold = sys->RunCorpusBatch(Twigs(), options, Threads(threads));
    ASSERT_TRUE(cold.ok()) << label;
    CorpusQueryOptions budgeted = options;
    budgeted.max_evaluations = 1;
    auto warm = sys->RunCorpusBatch(Twigs(), budgeted, Threads(threads));
    ASSERT_TRUE(warm.ok()) << label;
    EXPECT_TRUE(warm->exact) << label;
    EXPECT_EQ(warm->corpus.dispatches, 0) << label;
    ExpectItemInvariant(warm->corpus, label);
    for (size_t t = 0; t < Twigs().size(); ++t) {
      ASSERT_TRUE(cold->answers[t].ok() && warm->answers[t].ok()) << label;
      EXPECT_TRUE(warm->answers[t]->exact) << label;
      EXPECT_EQ(warm->answers[t]->max_residual_bound, 0.0) << label;
      ExpectSameAnswers(warm->answers[t]->answers, cold->answers[t]->answers,
                        label);
    }
  }
}

// ------------------------------------------------ proven-empty items

/// The paper's pair over a corpus of answerable and proven-empty
/// documents. `full-*` are the Figure 2 document; `bare-*` hold only
/// Order/SSP, where no mapping's route for ICN has an instance, so every
/// item of theirs is proven empty; `ocn` holds only the Order/BP/OOC/OCN
/// branch, which //ICN reaches under mapping m5 alone.
class ProvenEmptyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = testutil::MakePaperExample();
    bare_ = std::make_shared<Document>();
    bare_->AddChild(bare_->AddRoot("Order"), "SSP");
    bare_->Finalize();
    ocn_ = std::make_shared<Document>();
    const DocNodeId ooc = ocn_->AddChild(
        ocn_->AddChild(ocn_->AddRoot("Order"), "BP"), "OOC");
    ocn_->AddChild(ooc, "OCN", "Alice");
    ocn_->Finalize();
  }

  std::shared_ptr<const AnnotatedDocument> Annotate(const Document& doc) {
    auto bound = AnnotatedDocument::Bind(&doc, example_.source.get());
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::make_shared<const AnnotatedDocument>(
        std::move(bound).ValueOrDie());
  }

  /// `full` full-*, `bare` bare-* and (optionally) the ocn document under
  /// `pair`, published by a store with `shards` shards.
  ShardedCorpusSnapshot Corpus(
      int shards, const std::shared_ptr<const PreparedSchemaPair>& pair,
      int full, int bare, bool with_ocn) {
    ShardedDocumentStore store(shards);
    uint64_t epoch = 1;
    auto add = [&](const std::string& name, const Document* doc) {
      EXPECT_TRUE(
          store.Add(CorpusDocument{name, doc, Annotate(*doc), epoch++, pair})
              .ok());
    };
    for (int i = 0; i < full; ++i) {
      add("full-" + std::to_string(i), example_.doc.get());
    }
    for (int i = 0; i < bare; ++i) {
      add("bare-" + std::to_string(i), bare_.get());
    }
    if (with_ocn) add("ocn", ocn_.get());
    return *store.Snapshot();
  }

  /// How many (twig, document) items of `corpus` the probe proves empty.
  static int ProvenEmptyItems(const ShardedCorpusSnapshot& corpus,
                              const std::vector<std::string>& twigs,
                              int item_k) {
    int empty = 0;
    for (const std::string& twig : twigs) {
      for (const CorpusDocument& entry : *corpus.all) {
        auto plan = entry.pair->compiler->Compile(twig);
        EXPECT_TRUE(plan.ok()) << plan.status();
        if ((*plan)->DocumentAnswerUpperBound(item_k, *entry.annotated) ==
            kProvenEmptyBound) {
          ++empty;
        }
      }
    }
    return empty;
  }

  static int Dispatched(const BatchRunReport& report) {
    int n = 0;
    for (const int items : report.items_per_thread) n += items;
    return n;
  }

  testutil::PaperExample example_;
  std::shared_ptr<Document> bare_;
  std::shared_ptr<Document> ocn_;
};

// Fewer answers exist than k, so no twig's threshold ever fills: before
// proven-empty bounds the scheduler evaluated every item. Now exactly the
// proven-empty items are pruned — counted in items_pruned, never
// dispatched — and the answers stay those of the exhaustive path at every
// shard and thread count.
TEST_F(ProvenEmptyTest, UnfilledTopKPrunesExactlyTheProvenEmptyItems) {
  const auto pair = testutil::MakePaperPair(example_);
  const std::vector<std::string> twigs = {"//ICN", "//IP//ICN",
                                          "//ORDER//SCN"};
  CorpusQueryOptions bounded;
  bounded.top_k = 1000;
  CorpusQueryOptions exhaustive = bounded;
  exhaustive.bounded = false;
  for (const int shards : {1, 2, 4}) {
    const ShardedCorpusSnapshot corpus =
        Corpus(shards, pair, /*full=*/3, /*bare=*/5, /*with_ocn=*/true);
    const int items = static_cast<int>(twigs.size() * corpus.all->size());
    for (const int threads : {1, 4}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      BatchExecutorOptions exec_opts;
      exec_opts.num_threads = threads;
      BatchQueryExecutor executor(exec_opts);
      const int empty =
          ProvenEmptyItems(corpus, twigs, exec_opts.ptq.top_k);
      ASSERT_GE(empty, 5 * static_cast<int>(twigs.size())) << label;
      ASSERT_LT(empty, items) << label;
      BoundCache bounds;
      ShardedCorpusExecutor corpus_exec(&executor, &bounds);
      auto got = corpus_exec.Run(corpus, twigs, bounded, nullptr);
      auto want = corpus_exec.Run(corpus, twigs, exhaustive, nullptr);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status();
      ASSERT_TRUE(want.ok()) << label << ": " << want.status();
      const CorpusRunReport& r = got->corpus;
      ExpectItemInvariant(r, label);
      EXPECT_EQ(r.items_total, items) << label;
      EXPECT_EQ(r.items_pruned, empty) << label;
      EXPECT_EQ(r.items_evaluated, items - empty) << label;
      EXPECT_EQ(r.items_aborted, 0) << label;
      EXPECT_EQ(Dispatched(got->report), items - empty) << label;
      for (size_t t = 0; t < twigs.size(); ++t) {
        ASSERT_TRUE(got->answers[t].ok() && want->answers[t].ok()) << label;
        EXPECT_TRUE(got->answers[t]->exact) << label;
        ExpectSameAnswers(got->answers[t]->answers, want->answers[t]->answers,
                          label + " twig " + twigs[t]);
      }

      // With probing off, a warm bound cache still holds the proof: the
      // cold run recorded each empty ranked list as kProvenEmptyBound.
      CorpusQueryOptions unprobed = bounded;
      unprobed.probe_bounds = false;
      BoundCache realized;
      ShardedCorpusExecutor realized_exec(&executor, &realized);
      auto first = realized_exec.Run(corpus, twigs, unprobed, nullptr);
      auto second = realized_exec.Run(corpus, twigs, unprobed, nullptr);
      ASSERT_TRUE(first.ok() && second.ok()) << label;
      EXPECT_EQ(first->corpus.items_pruned, 0) << label;
      EXPECT_EQ(second->corpus.items_pruned, empty) << label;
      EXPECT_EQ(Dispatched(second->report), items - empty) << label;
      for (size_t t = 0; t < twigs.size(); ++t) {
        ASSERT_TRUE(second->answers[t].ok()) << label;
        ExpectSameAnswers(second->answers[t]->answers,
                          want->answers[t]->answers,
                          label + " unprobed twig " + twigs[t]);
      }
    }
  }
}

// The proof is structural, not a zero sum: a document that only a
// probability-0 mapping may match is bounded at 0.0, evaluated, and
// answered (with probability 0), while a document no mapping may match
// is pruned.
TEST_F(ProvenEmptyTest, ProbabilityZeroMappingStillCountsAsMayMatch) {
  // m5 is the only mapping routing ICN to OCN.
  (*example_.mappings.mutable_mappings())[4].probability = 0.0;
  const auto pair = testutil::MakePaperPair(example_);
  const ShardedCorpusSnapshot corpus =
      Corpus(/*shards=*/1, pair, /*full=*/0, /*bare=*/1, /*with_ocn=*/true);
  auto plan = pair->compiler->Compile("//ICN");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const CorpusDocument& bare = (*corpus.all)[0];
  const CorpusDocument& ocn = (*corpus.all)[1];
  ASSERT_EQ(ocn.name, "ocn");
  for (const int k : {0, 5}) {
    EXPECT_EQ((*plan)->DocumentAnswerUpperBound(k, *ocn.annotated), 0.0);
    EXPECT_EQ((*plan)->DocumentAnswerUpperBound(k, *bare.annotated),
              kProvenEmptyBound);
  }

  BatchQueryExecutor executor(BatchExecutorOptions{});
  ShardedCorpusExecutor corpus_exec(&executor);
  CorpusQueryOptions options;
  options.top_k = 10;
  auto got = corpus_exec.Run(corpus, {"//ICN"}, options, nullptr);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->corpus.items_evaluated, 1);
  EXPECT_EQ(got->corpus.items_pruned, 1);
  ASSERT_TRUE(got->answers[0].ok());
  const std::vector<CorpusAnswer>& answers = got->answers[0]->answers;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].document, "ocn");
  EXPECT_EQ(answers[0].probability, 0.0);
  EXPECT_FALSE(answers[0].matches.empty());

  // The same when every selected mapping may match and all of them have
  // probability 0: the bound is the (zero) mass, not the sentinel.
  for (PossibleMapping& m : *example_.mappings.mutable_mappings()) {
    m.probability = 0.0;
  }
  const auto zero_pair = testutil::MakePaperPair(example_);
  auto zero_plan = zero_pair->compiler->Compile("//ICN");
  ASSERT_TRUE(zero_plan.ok()) << zero_plan.status();
  const auto full = Annotate(*example_.doc);
  for (const int k : {0, 5}) {
    EXPECT_EQ((*zero_plan)->DocumentAnswerUpperBound(k, *full), 0.0);
  }
}

// Under an evaluation cap proven-empty items are pruned at their claims —
// before and after the budget expires — never evaluated, so they spend
// no credit, are never budget-skipped, and never raise the certified
// residual. One answerable document under a one-evaluation budget is
// therefore exact; with 12 answerable documents only those are skipped,
// and the residual is their bound.
TEST_F(ProvenEmptyTest, BudgetDrainNeverChargesProvenEmptyItems) {
  const auto pair = testutil::MakePaperPair(example_);
  auto plan = pair->compiler->Compile("//ICN");
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const int full : {1, 12}) {
    const ShardedCorpusSnapshot corpus =
        Corpus(/*shards=*/1, pair, full, /*bare=*/12, /*with_ocn=*/false);
    const auto first_full = std::find_if(
        corpus.all->begin(), corpus.all->end(),
        [](const CorpusDocument& e) { return e.name == "full-0"; });
    ASSERT_NE(first_full, corpus.all->end());
    const double full_bound = std::min(
        (*plan)->AnswerUpperBound(0),
        (*plan)->DocumentAnswerUpperBound(0, *first_full->annotated));
    for (const int threads : {1, 4}) {
      const std::string label = "full=" + std::to_string(full) +
                                " threads=" + std::to_string(threads);
      BatchExecutorOptions exec_opts;
      exec_opts.num_threads = threads;
      BatchQueryExecutor executor(exec_opts);
      ShardedCorpusExecutor corpus_exec(&executor);
      CorpusQueryOptions options;
      options.top_k = 1000;
      options.max_evaluations = 1;
      auto got = corpus_exec.Run(corpus, {"//ICN"}, options, nullptr);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status();
      const CorpusRunReport& r = got->corpus;
      ExpectItemInvariant(r, label);
      EXPECT_EQ(r.items_pruned, 12) << label;
      ASSERT_TRUE(got->answers[0].ok()) << label;
      if (full == 1) {
        EXPECT_EQ(r.items_evaluated, 1) << label;
        EXPECT_FALSE(got->answers[0]->answers.empty()) << label;
        EXPECT_TRUE(got->exact) << label;
        EXPECT_EQ(r.items_deadline_skipped, 0) << label;
        EXPECT_TRUE(got->answers[0]->exact) << label;
        EXPECT_EQ(got->answers[0]->max_residual_bound, 0.0) << label;
      } else {
        // The one credit goes to one full document. The first claim
        // after it still sees a live budget and is cancelled when the
        // driver finds no credit left, which publishes the expiry; every
        // later full document is deadline-skipped at its claim. So one
        // worker skips exactly full - 2. Each further worker may hold one
        // more claim between its budget poll and the driver, so with W
        // workers the count lies in [full - W - 1, full - 2].
        EXPECT_FALSE(got->answers[0]->exact) << label;
        EXPECT_LE(r.items_deadline_skipped, full - 2) << label;
        EXPECT_GE(r.items_deadline_skipped, full - threads - 1) << label;
        EXPECT_EQ(got->answers[0]->max_residual_bound, full_bound) << label;
      }
    }
  }
}

// --------------------------------------------- the cached list itself

// The corpus paths merge the cached entry's ranked list as it is: with
// fabricated entries whose answers tie on probability within and across
// documents, both schedulers must return the tie order of the global
// AnswerBefore ranking.
TEST(CorpusHitPathCacheTest, CorpusRunsMergeTheCachedRankedLists) {
  testutil::PaperExample example = testutil::MakePaperExample();
  auto bound =
      AnnotatedDocument::Bind(example.doc.get(), example.source.get());
  ASSERT_TRUE(bound.ok());
  auto annotated = std::make_shared<const AnnotatedDocument>(
      std::move(bound).ValueOrDie());
  auto pair = testutil::MakePaperPair(example);
  // Two registrations of the paper document, told apart by epoch.
  CorpusSnapshot corpus = {
      CorpusDocument{"a", example.doc.get(), annotated, 1, pair},
      CorpusDocument{"b", example.doc.get(), annotated, 2, pair}};
  const std::string twig = "//IP//ICN";

  BatchExecutorOptions exec_opts;
  exec_opts.num_threads = 2;
  BatchQueryExecutor executor(exec_opts);
  ResultCache cache;
  // Probabilities far below any real answer bound, so nothing prunes.
  std::vector<PtqResult> fabricated(2);
  fabricated[0].answers = {{0, 0.01, {4}}, {1, 0.01, {2}}, {2, 0.002, {7}}};
  fabricated[1].answers = {{0, 0.01, {1}}, {1, 0.005, {3}}};
  for (size_t d = 0; d < corpus.size(); ++d) {
    cache.Insert(ResultKey(twig, HashTwig(twig), *annotated, corpus[d].epoch,
                           exec_opts.ptq.top_k, exec_opts.use_block_tree,
                           *pair),
                 std::make_shared<const RankedPtqResult>(fabricated[d]));
  }
  BatchCacheContext ctx{&cache, /*epoch=*/1};
  ShardedCorpusSnapshot one_shard;
  one_shard.all = std::make_shared<const CorpusSnapshot>(corpus);
  one_shard.shards = {one_shard.all};
  ShardedCorpusExecutor corpus_exec(&executor);
  for (const bool bounded : {true, false}) {
    for (const int k : {2, 4, 0}) {
      CorpusQueryOptions options;
      options.top_k = k;
      options.bounded = bounded;
      const std::string label = "bounded=" + std::to_string(bounded) +
                                " k=" + std::to_string(k);
      auto got = corpus_exec.Run(one_shard, {twig}, options, &ctx);
      ASSERT_TRUE(got.ok()) << label;
      ASSERT_TRUE(got->answers[0].ok()) << label;
      EXPECT_EQ(got->corpus.dispatches, bounded && k > 0 ? 0 : 1) << label;
      ExpectSameAnswers(got->answers[0]->answers,
                        SortOracle({"a", "b"}, fabricated, k), label);
    }
  }
}

/// Two cacheable entries with identical PtqResult footprints: `spread`'s
/// eight answers bind eight distinct match sets, `same`'s bind one, so
/// their ranked lists (8 vs 1 entries of 64 matches) differ in size.
std::shared_ptr<const RankedPtqResult> MakeEntry(bool spread) {
  PtqResult r;
  for (int i = 0; i < 8; ++i) {
    MappingAnswer a;
    a.mapping = i;
    a.probability = 0.1;
    for (int j = 0; j < 64; ++j) a.matches.push_back(spread ? 64 * i + j : j);
    r.answers.push_back(std::move(a));
  }
  return std::make_shared<const RankedPtqResult>(std::move(r));
}

ResultCacheKey Key(int i, uint64_t pair = 0) {
  ResultCacheKey key{"q" + std::to_string(i), nullptr, 1, 0, true};
  key.pair = pair;
  return key;
}

TEST(CorpusHitPathCacheTest, EntryBytesCountTheRankedList) {
  const auto same = MakeEntry(/*spread=*/false);
  const auto spread = MakeEntry(/*spread=*/true);
  ASSERT_EQ(ApproxPtqResultBytes(same->result),
            ApproxPtqResultBytes(spread->result));
  ASSERT_EQ(same->ranked.size(), 1u);
  ASSERT_EQ(spread->ranked.size(), 8u);
  EXPECT_GT(ApproxEntryBytes(*spread), ApproxEntryBytes(*same));
  EXPECT_GE(ApproxEntryBytes(*same),
            ApproxPtqResultBytes(same->result) +
                same->ranked[0].matches.size() * sizeof(DocNodeId));

  ResultCache a;
  ResultCache b;
  a.Insert(Key(0), same);
  b.Insert(Key(0), spread);
  // Same key, same PtqResult footprint: the whole difference in
  // bytes_in_use is the ranked list.
  EXPECT_EQ(b.Stats().bytes_in_use - a.Stats().bytes_in_use,
            ApproxEntryBytes(*spread) - ApproxEntryBytes(*same));
  // Lookup hands out the inserted entry itself.
  EXPECT_EQ(a.Lookup(Key(0)).get(), same.get());

  // A budget the PtqResult alone would fit, but not with its ranked
  // list: the entry is not cached.
  ResultCacheOptions tiny;
  tiny.num_shards = 1;
  tiny.max_bytes = ApproxPtqResultBytes(spread->result) + 1024;
  ASSERT_GT(ApproxEntryBytes(*spread), tiny.max_bytes);
  ResultCache small(tiny);
  small.Insert(Key(0), spread);
  EXPECT_EQ(small.Stats().entries, 0u);
  EXPECT_EQ(small.Stats().bytes_in_use, 0u);
}

// The byte budget counts what the allocator holds: an entry made of many
// one- and two-element match lists is charged at least the summed usable
// sizes of its heap blocks, not just capacity * sizeof.
TEST(CorpusHitPathCacheTest, EntryBytesCoverTheAllocatorsBlocks) {
  PtqResult r;
  for (int i = 0; i < 48; ++i) {
    MappingAnswer a;
    a.mapping = i;
    a.probability = 0.01;
    a.matches.push_back(i);
    if (i % 2 == 0) a.matches.push_back(i + 100);
    r.answers.push_back(std::move(a));
  }
  const RankedPtqResult entry(std::move(r));
  size_t usable = 0;
  size_t naive = 0;
  auto count = [&](const auto& v) {
    naive += v.capacity() * sizeof(v[0]);
#if defined(__GLIBC__)
    if (v.data() != nullptr) {
      usable += malloc_usable_size(const_cast<void*>(
          static_cast<const void*>(v.data())));
    }
#else
    usable += v.capacity() * sizeof(v[0]);
#endif
  };
  for (const std::vector<MappingAnswer>* list :
       {&entry.result.answers, &entry.ranked}) {
    count(*list);
    for (const MappingAnswer& a : *list) count(a.matches);
  }
  ASSERT_EQ(entry.ranked.size(), 48u);
  EXPECT_GE(ApproxEntryBytes(entry), usable);
  EXPECT_GT(ApproxEntryBytes(entry), naive);
  EXPECT_GE(ApproxPtqResultBytes(entry.result),
            sizeof(PtqResult) + entry.result.answers.size() * 2 *
                                    sizeof(DocNodeId));
}

TEST(CorpusHitPathCacheTest, EvictionErasePairAndClearReleaseTheEntry) {
  ResultCacheOptions opts;
  opts.num_shards = 1;
  // Room for one entry (with its bookkeeping), not two.
  opts.max_bytes = ApproxEntryBytes(*MakeEntry(true)) * 3 / 2;
  ResultCache cache(opts);

  std::weak_ptr<const RankedPtqResult> first = [&] {
    auto entry = MakeEntry(true);
    cache.Insert(Key(0), entry);
    return std::weak_ptr<const RankedPtqResult>(entry);
  }();
  ASSERT_FALSE(first.expired());  // the cache holds it
  const size_t one_entry = cache.Stats().bytes_in_use;
  cache.Insert(Key(1), MakeEntry(true));  // evicts Key(0)
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(cache.Stats().bytes_in_use, one_entry);

  std::weak_ptr<const RankedPtqResult> swept = [&] {
    auto entry = MakeEntry(true);
    cache.Insert(Key(2, /*pair=*/7), entry);
    return std::weak_ptr<const RankedPtqResult>(entry);
  }();
  ASSERT_FALSE(swept.expired());
  EXPECT_EQ(cache.ErasePair(7), 1u);
  EXPECT_TRUE(swept.expired());
  EXPECT_EQ(cache.Stats().bytes_in_use, 0u);

  std::weak_ptr<const RankedPtqResult> cleared = [&] {
    auto entry = MakeEntry(false);
    cache.Insert(Key(3), entry);
    return std::weak_ptr<const RankedPtqResult>(entry);
  }();
  ASSERT_FALSE(cleared.expired());
  // A holder outlives eviction: the entry is shared, not copied.
  auto held = cache.Lookup(Key(3));
  cache.Clear();
  EXPECT_EQ(cache.Stats().bytes_in_use, 0u);
  EXPECT_FALSE(cleared.expired());
  held.reset();
  EXPECT_TRUE(cleared.expired());
}

}  // namespace
}  // namespace uxm

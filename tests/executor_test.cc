// ThreadPool lifecycle/exception safety and BatchQueryExecutor /
// UncertainMatchingSystem::RunBatch determinism: the batch path must
// return exactly the single-query answers, in input order, for any
// thread count.
#include "exec/batch_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "core/system.h"
#include "exec/thread_pool.h"
#include "plan/driver.h"
#include "query/flat_kernel.h"
#include "tests/test_util.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i]() { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ClampsThreadCountToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, TaskExceptionReachesFutureAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // Workers must still be alive and accepting work afterwards.
  auto good = pool.Submit([]() { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran]() { ++ran; });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 50);
  pool.Shutdown();  // second call is a no-op
  // Submitting after shutdown yields an invalid future, not a crash.
  auto f = pool.Submit([]() { return 1; });
  EXPECT_FALSE(f.valid());
}

TEST(ThreadPoolTest, DestructorJoinsWithoutShutdownCall) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) pool.Submit([&ran]() { ++ran; });
  }
  EXPECT_EQ(ran.load(), 20);
}

// ----------------------------------------------------------- claim loop

TEST(ClaimLoopTest, RecruitedHelpersCoverEveryItemExactlyOnce) {
  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchQueryExecutor executor(options);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  std::atomic<size_t> cursor{0};
  BatchRunReport report;
  executor.RunClaimLoop(
      [&](ClaimSlot& slot) {
        for (;;) {
          const size_t i = cursor.fetch_add(1);
          if (i >= hits.size()) return;
          slot.Recruit(hits.size() - i - 1);
          ++hits[i];
          ++slot.tally.items;
        }
      },
      &report);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ASSERT_EQ(report.items_per_thread.size(), 4u);
  int total = 0;
  for (const int n : report.items_per_thread) total += n;
  EXPECT_EQ(total, 257);
}

// A loop that never recruits runs on the calling thread alone.
TEST(ClaimLoopTest, NoRecruitmentWakesNoHelper) {
  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchQueryExecutor executor(options);
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  BatchRunReport report;
  executor.RunClaimLoop(
      [&](ClaimSlot& slot) {
        for (; ran < 16; ++ran) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          ++slot.tally.items;
        }
      },
      &report);
  EXPECT_EQ(ran, 16);
  EXPECT_EQ(report.items_per_thread, (std::vector<int>{16, 0, 0, 0}));
}

TEST(ClaimLoopTest, RethrowsAfterEveryHelperReturnedAndStaysUsable) {
  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchQueryExecutor executor(options);
  std::atomic<size_t> cursor{0};
  std::atomic<int> claimed{0};
  EXPECT_THROW(executor.RunClaimLoop(
                   [&](ClaimSlot& slot) {
                     for (;;) {
                       const size_t i = cursor.fetch_add(1);
                       if (i >= 64) return;
                       slot.Recruit(64 - i - 1);
                       ++claimed;
                       if (i == 13) throw std::runtime_error("boom");
                     }
                   },
                   nullptr),
               std::runtime_error);
  // The throw ended one slot's loop only: the helpers drained the cursor,
  // and RunClaimLoop rethrew after all of them had returned.
  EXPECT_EQ(claimed.load(), 64);
  std::atomic<int> ran{0};
  executor.RunClaimLoop([&ran](ClaimSlot&) { ++ran; }, nullptr);
  EXPECT_EQ(ran.load(), 1);
}

// ------------------------------------------------------------ executor

class BatchExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testutil::MakePaperExample();
    auto ad = AnnotatedDocument::Bind(ex_.doc.get(), ex_.source.get());
    ASSERT_TRUE(ad.ok()) << ad.status();
    annotated_ = std::make_unique<AnnotatedDocument>(std::move(ad).ValueOrDie());
    pair_ = testutil::MakePaperPair(ex_);
    ASSERT_NE(pair_, nullptr);
  }

  static BatchQueryItem Item(const AnnotatedDocument* doc,
                             const std::string& twig, int top_k = 0) {
    BatchQueryItem item;
    item.doc = doc;
    item.twig = twig;
    item.top_k = top_k;
    return item;
  }

  std::vector<BatchQueryItem> MakeBatch(int copies) const {
    const std::vector<std::string> twigs = {"ORDER/IP/ICN", "ORDER/SP/SCN",
                                            "//ICN", "//SCN", "ORDER//ICN"};
    std::vector<BatchQueryItem> batch;
    for (int c = 0; c < copies; ++c) {
      for (const std::string& t : twigs) {
        batch.push_back(Item(annotated_.get(), t));
      }
    }
    return batch;
  }

  static void ExpectSameAnswers(const std::vector<Result<PtqResult>>& a,
                                const std::vector<Result<PtqResult>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].ok(), b[i].ok()) << "item " << i;
      if (!a[i].ok()) continue;
      ASSERT_EQ(a[i]->answers.size(), b[i]->answers.size()) << "item " << i;
      for (size_t j = 0; j < a[i]->answers.size(); ++j) {
        EXPECT_EQ(a[i]->answers[j].mapping, b[i]->answers[j].mapping);
        EXPECT_DOUBLE_EQ(a[i]->answers[j].probability,
                         b[i]->answers[j].probability);
        EXPECT_EQ(a[i]->answers[j].matches, b[i]->answers[j].matches);
      }
    }
  }

  testutil::PaperExample ex_;
  std::unique_ptr<AnnotatedDocument> annotated_;
  std::shared_ptr<const PreparedSchemaPair> pair_;
};

TEST_F(BatchExecutorTest, OneThreadMatchesSequentialEvaluation) {
  BatchExecutorOptions opts;
  opts.num_threads = 1;
  BatchQueryExecutor exec(opts);
  const auto batch = MakeBatch(1);
  const auto results = exec.Run(batch, pair_);
  ASSERT_EQ(results.size(), batch.size());

  PtqEvaluator eval(&pair_->mappings, annotated_.get());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    auto q = TwigQuery::Parse(batch[i].twig);
    ASSERT_TRUE(q.ok());
    auto expect = eval.EvaluateWithBlockTree(*q, pair_->tree());
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(results[i]->answers.size(), expect->answers.size());
    for (size_t j = 0; j < expect->answers.size(); ++j) {
      EXPECT_EQ(results[i]->answers[j].matches, expect->answers[j].matches);
    }
  }
}

TEST_F(BatchExecutorTest, DeterministicAcrossThreadCounts) {
  BatchExecutorOptions one;
  one.num_threads = 1;
  BatchQueryExecutor exec1(one);
  const auto batch = MakeBatch(8);
  const auto base = exec1.Run(batch, pair_);

  for (int threads : {2, 4, 8}) {
    BatchExecutorOptions opts;
    opts.num_threads = threads;
    BatchQueryExecutor execN(opts);
    BatchRunReport report;
    const auto results = execN.Run(batch, pair_, &report);
    ExpectSameAnswers(base, results);
    EXPECT_EQ(report.num_threads, threads);
    int total = 0;
    for (int c : report.items_per_thread) total += c;
    EXPECT_EQ(total, static_cast<int>(batch.size()));
  }
}

TEST_F(BatchExecutorTest, PerItemErrorsDoNotPoisonTheBatch) {
  BatchExecutorOptions opts;
  opts.num_threads = 4;
  BatchQueryExecutor exec(opts);
  std::vector<BatchQueryItem> batch = MakeBatch(1);
  batch.insert(batch.begin() + 2,
               Item(annotated_.get(), "ORDER//"));  // bad twig
  batch.insert(batch.begin() + 4, Item(nullptr, "//ICN"));
  const auto results = exec.Run(batch, pair_);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_FALSE(results[2].ok());
  EXPECT_FALSE(results[4].ok());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2 || i == 4) continue;
    EXPECT_TRUE(results[i].ok()) << "item " << i << ": "
                                 << results[i].status();
  }
}

TEST_F(BatchExecutorTest, CachesRepeatedQueriesAcrossThreads) {
  BatchExecutorOptions opts;
  opts.num_threads = 2;
  BatchQueryExecutor exec(opts);
  const auto batch = MakeBatch(10);  // 5 distinct twigs x 10 copies
  BatchRunReport report;
  const auto results = exec.Run(batch, pair_, &report);
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  // 50 items over 5 distinct twigs through the shared QueryCompiler: at
  // most 5 compilations per worker even if every first sight races.
  EXPECT_GE(report.query_cache_hits,
            static_cast<int>(batch.size()) - 5 * report.num_threads);
  EXPECT_GE(report.compiler.misses, 5u);
  // No result cache was bound, so those counters must stay zero.
  EXPECT_EQ(report.result_cache_hits, 0);
  EXPECT_EQ(report.result_cache_misses, 0);
}

TEST_F(BatchExecutorTest, ResultCacheShortCircuitsRepeatedRuns) {
  BatchExecutorOptions opts;
  opts.num_threads = 2;
  BatchQueryExecutor exec(opts);
  ResultCache cache;
  BatchCacheContext ctx{&cache, /*epoch=*/7};
  const auto batch = MakeBatch(2);
  BatchRunReport cold;
  const auto first = exec.Run(batch, pair_, &cold, &ctx);
  // 10 items over 5 distinct (twig, doc) keys: the repeats hit even cold.
  EXPECT_EQ(cold.result_cache_hits + cold.result_cache_misses,
            static_cast<int>(batch.size()));
  BatchRunReport warm;
  const auto second = exec.Run(batch, pair_, &warm, &ctx);
  EXPECT_EQ(warm.result_cache_hits, static_cast<int>(batch.size()));
  EXPECT_EQ(warm.result_cache_misses, 0);
  ExpectSameAnswers(first, second);
  // A different epoch sees none of those entries: each of the 5 distinct
  // keys must miss (and be re-evaluated) at least once, where the warm
  // same-epoch run had no misses at all.
  BatchCacheContext other{&cache, /*epoch=*/8};
  BatchRunReport fresh;
  const auto third = exec.Run(batch, pair_, &fresh, &other);
  EXPECT_GE(fresh.result_cache_misses, 5);
  ExpectSameAnswers(first, third);
}

TEST_F(BatchExecutorTest, BasicEvaluatorPathMatchesBlockTreePath) {
  BatchExecutorOptions tree_opts;
  tree_opts.num_threads = 2;
  BatchQueryExecutor tree_exec(tree_opts);
  BatchExecutorOptions basic_opts;
  basic_opts.num_threads = 2;
  basic_opts.use_block_tree = false;
  BatchQueryExecutor basic_exec(basic_opts);
  const auto batch = MakeBatch(2);
  ExpectSameAnswers(tree_exec.Run(batch, pair_),
                    basic_exec.Run(batch, pair_));
}

TEST_F(BatchExecutorTest, HeterogeneousItemsRunUnderTheirOwnPair) {
  // A second pair over the same example but with only the two most
  // probable mappings: items carrying it must answer exactly as a run
  // whose default pair it is, inside one mixed batch.
  testutil::PaperExample other = testutil::MakePaperExample();
  auto* ms = other.mappings.mutable_mappings();
  ms->resize(2);
  other.mappings.NormalizeProbabilities();
  auto other_pair = testutil::MakePaperPair(other);
  auto other_ad = AnnotatedDocument::Bind(other.doc.get(), other.source.get());
  ASSERT_TRUE(other_ad.ok());
  const AnnotatedDocument other_annotated =
      std::move(other_ad).ValueOrDie();

  BatchExecutorOptions opts;
  opts.num_threads = 2;
  BatchQueryExecutor exec(opts);
  std::vector<BatchQueryItem> mixed = MakeBatch(1);
  BatchQueryItem foreign = Item(&other_annotated, "//ICN");
  foreign.pair = other_pair;
  mixed.push_back(foreign);

  const auto results = exec.Run(mixed, pair_);
  ASSERT_EQ(results.size(), mixed.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  // The foreign item saw other_pair's two mappings, not pair_'s five.
  EXPECT_EQ(results.back()->answers.size(), 2u);
  // An item with neither its own pair nor a default errors only itself.
  const auto bare = exec.Run({Item(annotated_.get(), "//ICN")}, nullptr);
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_FALSE(bare[0].ok());
}

// ------------------------------------------------------------ facade

class RunBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = LoadDataset("D7");
    ASSERT_TRUE(d.ok());
    dataset_ = std::make_unique<Dataset>(std::move(d).ValueOrDie());
    doc_ = std::make_unique<Document>(GenerateDocument(
        *dataset_->source, DocGenOptions{.seed = 42, .target_nodes = 600}));
    SystemOptions opts;
    opts.top_h.h = 30;
    sys_ = std::make_unique<UncertainMatchingSystem>(opts);
    ASSERT_TRUE(
        sys_->Prepare(dataset_->source.get(), dataset_->target.get()).ok());
    ASSERT_TRUE(sys_->AttachDocument(doc_.get()).ok());
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<Document> doc_;
  std::unique_ptr<UncertainMatchingSystem> sys_;
};

TEST_F(RunBatchTest, MatchesSingleQueryAnswersInInputOrder) {
  std::vector<BatchQueryRequest> requests;
  for (const std::string& q : TableIIIQueries()) {
    requests.push_back(BatchQueryRequest{nullptr, q, 0});
  }
  BatchRunOptions run;
  run.num_threads = 4;
  auto response = sys_->RunBatch(requests, run);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->answers.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto single = sys_->Query(requests[i].twig);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(response->answers[i].ok()) << response->answers[i].status();
    ASSERT_EQ(response->answers[i]->answers.size(), single->answers.size())
        << "query " << i;
    for (size_t j = 0; j < single->answers.size(); ++j) {
      EXPECT_EQ(response->answers[i]->answers[j].mapping,
                single->answers[j].mapping);
      EXPECT_EQ(response->answers[i]->answers[j].matches,
                single->answers[j].matches);
    }
  }
}

TEST_F(RunBatchTest, SameAnswersForOneAndManyThreads) {
  std::vector<BatchQueryRequest> requests;
  for (int copy = 0; copy < 4; ++copy) {
    for (const std::string& q : TableIIIQueries()) {
      requests.push_back(BatchQueryRequest{nullptr, q, 0});
    }
  }
  BatchRunOptions one;
  one.num_threads = 1;
  auto base = sys_->RunBatch(requests, one);
  ASSERT_TRUE(base.ok());
  BatchRunOptions many;
  many.num_threads = 8;
  auto wide = sys_->RunBatch(requests, many);
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(base->answers.size(), wide->answers.size());
  for (size_t i = 0; i < base->answers.size(); ++i) {
    ASSERT_TRUE(base->answers[i].ok());
    ASSERT_TRUE(wide->answers[i].ok());
    ASSERT_EQ(base->answers[i]->answers.size(),
              wide->answers[i]->answers.size());
    for (size_t j = 0; j < base->answers[i]->answers.size(); ++j) {
      EXPECT_EQ(base->answers[i]->answers[j].mapping,
                wide->answers[i]->answers[j].mapping);
      EXPECT_DOUBLE_EQ(base->answers[i]->answers[j].probability,
                       wide->answers[i]->answers[j].probability);
      EXPECT_EQ(base->answers[i]->answers[j].matches,
                wide->answers[i]->answers[j].matches);
    }
  }
}

TEST_F(RunBatchTest, PerRequestDocumentsAndTopK) {
  Document other = GenerateDocument(
      *dataset_->source, DocGenOptions{.seed = 99, .target_nodes = 400});
  const std::string q = TableIIIQueries()[0];
  std::vector<BatchQueryRequest> requests = {
      BatchQueryRequest{nullptr, q, 0},
      BatchQueryRequest{&other, q, 0},
      BatchQueryRequest{nullptr, q, 5},
  };
  auto response = sys_->RunBatch(requests);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->answers.size(), 3u);
  for (const auto& a : response->answers) ASSERT_TRUE(a.ok()) << a.status();
  // Request 2 is top-5 restricted.
  EXPECT_LE(response->answers[2]->answers.size(), 5u);
  auto topk = sys_->QueryTopK(q, 5);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(response->answers[2]->answers.size(), topk->answers.size());
}

TEST_F(RunBatchTest, ConcurrentCallsWithDifferentThreadCounts) {
  // Two callers racing with different widths force the facade to swap
  // its cached executor while the other side may still be running on
  // it; shared ownership must keep every in-flight run valid.
  std::vector<BatchQueryRequest> requests;
  for (const std::string& q : TableIIIQueries()) {
    requests.push_back(BatchQueryRequest{nullptr, q, 0});
  }
  auto expected = sys_->RunBatch(requests, BatchRunOptions{1, true});
  ASSERT_TRUE(expected.ok());
  auto call = [&](int threads) {
    BatchRunOptions run;
    run.num_threads = threads;
    for (int i = 0; i < 3; ++i) {
      auto r = sys_->RunBatch(requests, run);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) return;
      for (size_t s = 0; s < requests.size(); ++s) {
        EXPECT_TRUE(r->answers[s].ok());
        EXPECT_EQ(r->answers[s]->answers.size(),
                  expected->answers[s]->answers.size());
      }
    }
  };
  std::thread t1(call, 2);
  std::thread t2(call, 3);
  t1.join();
  t2.join();
}

TEST_F(RunBatchTest, NonConformingDocumentFailsOnlyItsOwnSlots) {
  Document bad;
  bad.AddRoot("NotTheSourceRoot");
  bad.Finalize();
  const std::string q = TableIIIQueries()[0];
  std::vector<BatchQueryRequest> requests = {
      BatchQueryRequest{nullptr, q, 0},
      BatchQueryRequest{&bad, q, 0},
      BatchQueryRequest{nullptr, q, 0},
  };
  auto response = sys_->RunBatch(requests);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->answers.size(), 3u);
  EXPECT_TRUE(response->answers[0].ok());
  EXPECT_FALSE(response->answers[1].ok());
  EXPECT_TRUE(response->answers[2].ok());
}

TEST_F(RunBatchTest, RequiresPrepare) {
  UncertainMatchingSystem unprepared;
  auto r = unprepared.RunBatch({BatchQueryRequest{nullptr, "//A", 0}});
  EXPECT_FALSE(r.ok());
}

TEST_F(RunBatchTest, RequiresAttachedDocumentForNullDocRequests) {
  SystemOptions opts;
  opts.top_h.h = 10;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(
      sys.Prepare(dataset_->source.get(), dataset_->target.get()).ok());
  auto r = sys.RunBatch({BatchQueryRequest{nullptr, "//A", 0}});
  EXPECT_FALSE(r.ok());
  // But explicit-document requests work without AttachDocument.
  auto r2 = sys.RunBatch(
      {BatchQueryRequest{doc_.get(), TableIIIQueries()[0], 0}});
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r2->answers[0].ok());
}

// ---------------------------------------------- in-kernel cancellation

// Drives the flat kernels directly with a threshold that already exceeds
// the caller's answer bound: the kernel's periodic polls must abandon the
// evaluation with Status::Cancelled instead of running to completion —
// and with a threshold below the bound the same call must be a no-op
// passthrough with bit-identical answers.
class KernelCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 1;
    gen.cold_documents = 0;
    gen.doc_target_nodes = 300;  // plenty of inner-loop steps per call
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
    SystemOptions opts;
    opts.top_h.h = 16;
    sys_ = std::make_unique<UncertainMatchingSystem>(opts);
    ASSERT_TRUE(sys_->PrepareFromMatching(scenario_->matching).ok());
    pair_ = sys_->prepared_pair();
    ASSERT_NE(pair_, nullptr);
    auto bound = AnnotatedDocument::Bind(scenario_->documents[0].get(),
                                         scenario_->source.get());
    ASSERT_TRUE(bound.ok()) << bound.status();
    annotated_ = std::make_unique<AnnotatedDocument>(
        std::move(bound).ValueOrDie());
    auto compiled = pair_->compiler->Compile(scenario_->deep_probe_twig);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    plan_ = *compiled;
    selected_ = plan_->SelectForTopK(0);
    ASSERT_FALSE(selected_.empty());
  }

  Result<PtqResult> Evaluate(bool tree, const KernelCancelContext* cancel) {
    MonotonicScratch arena;
    const PtqOptions options;
    return tree ? EvaluateTreeFlat(plan_->query(), plan_->embeddings(),
                                   selected_, plan_->truncated_embeddings(),
                                   *pair_->flat, *annotated_, options, &arena,
                                   cancel)
                : EvaluateBasicFlat(plan_->query(), plan_->embeddings(),
                                    selected_, plan_->truncated_embeddings(),
                                    *pair_->flat, *annotated_, options,
                                    &arena, cancel);
  }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
  std::unique_ptr<UncertainMatchingSystem> sys_;
  std::shared_ptr<const PreparedSchemaPair> pair_;
  std::unique_ptr<AnnotatedDocument> annotated_;
  std::shared_ptr<const QueryPlan> plan_;
  std::vector<MappingId> selected_;
};

TEST_F(KernelCancelTest, KernelsAbortWhenThresholdExceedsTheBound) {
  std::atomic<double> threshold{1.0};
  KernelCancelContext cancel;
  cancel.threshold = &threshold;
  cancel.cancel_above = 0.5;  // threshold already past the bound
  for (const bool tree : {true, false}) {
    auto r = Evaluate(tree, &cancel);
    EXPECT_FALSE(r.ok()) << (tree ? "tree" : "basic");
    EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  }
}

TEST_F(KernelCancelTest, DormantThresholdLeavesAnswersBitIdentical) {
  std::atomic<double> threshold{1.0};
  KernelCancelContext cancel;
  cancel.threshold = &threshold;
  cancel.cancel_above = 2.0;  // threshold can never exceed this
  for (const bool tree : {true, false}) {
    auto plain = Evaluate(tree, nullptr);
    auto polled = Evaluate(tree, &cancel);
    ASSERT_TRUE(plain.ok()) << plain.status();
    ASSERT_TRUE(polled.ok()) << polled.status();
    ASSERT_EQ(plain->answers.size(), polled->answers.size());
    for (size_t i = 0; i < plain->answers.size(); ++i) {
      EXPECT_EQ(plain->answers[i].mapping, polled->answers[i].mapping);
      EXPECT_DOUBLE_EQ(plain->answers[i].probability,
                       polled->answers[i].probability);
      EXPECT_EQ(plain->answers[i].matches, polled->answers[i].matches);
    }
  }
}

// The driver distinguishes the two abort sites: its own cheap checks
// before evaluation (cancelled, not in-kernel) versus the kernel's
// periodic polls. A stationary threshold is always caught by the
// pre-evaluation checks — the in-kernel flavor needs a concurrent raise
// (covered by the corpus stress test) or a direct kernel call (above).
TEST_F(KernelCancelTest, DriverCountsPreEvaluationAbortsAsNotInKernel) {
  std::atomic<double> threshold{1.0};
  DriverRequest request;
  request.pair = pair_.get();
  request.doc = annotated_.get();
  const std::string twig = scenario_->deep_probe_twig;
  request.twig = &twig;
  request.upper_bound = 0.25;  // below the threshold: provably pointless
  request.cancel_threshold = &threshold;
  DriverCounters counters;
  auto r = ExecutionDriver::Execute(request, &counters);
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  EXPECT_TRUE(counters.cancelled);
  EXPECT_FALSE(counters.cancelled_in_kernel);

  // An unthreatened request runs to completion with both flags clear.
  request.upper_bound = 5.0;
  auto ok = ExecutionDriver::Execute(request, &counters);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(counters.cancelled);
  EXPECT_FALSE(counters.cancelled_in_kernel);
}

}  // namespace
}  // namespace uxm

// Concurrency stress for anytime (budgeted) corpus serving, intended to
// run under ThreadSanitizer: reader threads run sharded bounded batches
// whose deadlines expire MID-RUN while mutator threads churn corpus
// documents. The races under test are the shared RunBudget expiry flag
// (published by whichever driver or kernel poll crosses the deadline
// first, observed by every claim slot), the budget classification in
// the claim loop, and the usual publication handoffs. Answer content
// legitimately varies per snapshot instant and per expiry timing, so
// assertions are structural: the disposition invariant (with the budget
// buckets), shard-sums-to-aggregate, exact => zero residual, and answers
// drawn from the known document universe. When the build compiles the
// failpoints in, a delay-only kernel failpoint stretches evaluations so
// deadlines reliably land mid-run.
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "workload/corpus_generator.h"

namespace uxm {
namespace {

using Clock = std::chrono::steady_clock;

class AnytimeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 3;
    gen.cold_documents = 9;
    gen.doc_target_nodes = 120;
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

TEST_F(AnytimeStressTest, ExpiringBudgetsRaceDocumentChurnSafely) {
  SystemOptions opts;
  opts.top_h.h = 16;
  opts.corpus_shards = 4;
  // Uncached so every batch dispatches real work that a budget can cut
  // short, instead of retiring on cache hits.
  opts.cache.enable_result_cache = false;
  opts.cache.enable_bound_cache = false;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.PrepareFromMatching(scenario_->matching).ok());

  const size_t stable = scenario_->documents.size() / 2;
  for (size_t i = 0; i < stable; ++i) {
    ASSERT_TRUE(
        sys.AddDocument(scenario_->names[i], scenario_->documents[i].get())
            .ok());
  }
  std::set<std::string> universe(scenario_->names.begin(),
                                 scenario_->names.end());

  if (FaultInjector::CompiledIn()) {
    FaultPlan stall;
    stall.period = 3;
    stall.code = StatusCode::kOk;  // delay-only: stretch, don't fail
    stall.delay_micros = 300;
    FaultInjector::Instance().Arm(FaultSite::kKernelEval, stall);
  }

  const std::vector<std::string> twigs = {scenario_->probe_twig,
                                          scenario_->deep_probe_twig};
  BatchRunOptions run;
  run.num_threads = 2;

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::atomic<int> truncated{0};
  std::atomic<bool> failed{false};

  std::thread mutator([&] {
    for (int round = 0;
         (round < 6 || batches.load() < 4) && round < 500 && !stop.load();
         ++round) {
      for (size_t i = stable; i < scenario_->documents.size(); ++i) {
        if (!sys.AddDocument(scenario_->names[i],
                             scenario_->documents[i].get())
                 .ok()) {
          failed.store(true);
        }
      }
      for (size_t i = stable; i < scenario_->documents.size(); ++i) {
        if (!sys.RemoveDocument(scenario_->names[i]).ok()) {
          failed.store(true);
        }
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      int iteration = 0;
      while (!stop.load()) {
        CorpusQueryOptions options;
        options.top_k = 3;
        options.probe_bounds = false;  // keep items in flight
        // Alternate budget shapes so expiry lands everywhere from
        // "before the first claim" to "after the last": tight and loose
        // deadlines, evaluation-count budgets, and unlimited controls.
        switch ((iteration + r) % 4) {
          case 0:
            options.deadline =
                Clock::now() + std::chrono::microseconds(200 * (iteration % 7));
            break;
          case 1:
            options.deadline = Clock::now() + std::chrono::milliseconds(2);
            break;
          case 2:
            options.max_evaluations = 1 + iteration % 5;
            break;
          default:
            break;  // unlimited
        }
        ++iteration;
        auto got = sys.RunCorpusBatch(twigs, options, run);
        if (!got.ok()) {
          failed.store(true);
          break;
        }
        batches.fetch_add(1);
        if (!got->exact) truncated.fetch_add(1);
        const CorpusRunReport& rep = got->corpus;
        EXPECT_EQ(rep.items_total, rep.items_evaluated + rep.items_pruned +
                                       rep.items_aborted + rep.items_failed);
        EXPECT_EQ(rep.items_failed, 0);
        EXPECT_LE(rep.items_deadline_skipped, rep.items_aborted);
        CorpusRunReport sum;
        for (const CorpusRunReport& shard : got->shard_reports) {
          EXPECT_EQ(shard.items_total,
                    shard.items_evaluated + shard.items_pruned +
                        shard.items_aborted + shard.items_failed);
          EXPECT_LE(shard.items_deadline_skipped, shard.items_aborted);
          sum.items_total += shard.items_total;
          sum.items_evaluated += shard.items_evaluated;
          sum.items_pruned += shard.items_pruned;
          sum.items_aborted += shard.items_aborted;
          sum.items_failed += shard.items_failed;
          sum.items_deadline_skipped += shard.items_deadline_skipped;
        }
        if (!got->shard_reports.empty()) {
          EXPECT_EQ(sum.items_total, rep.items_total);
          EXPECT_EQ(sum.items_evaluated, rep.items_evaluated);
          EXPECT_EQ(sum.items_pruned, rep.items_pruned);
          EXPECT_EQ(sum.items_aborted, rep.items_aborted);
          EXPECT_EQ(sum.items_failed, rep.items_failed);
          EXPECT_EQ(sum.items_deadline_skipped, rep.items_deadline_skipped);
        }
        for (const auto& answer : got->answers) {
          if (!answer.ok()) {
            failed.store(true);
            break;
          }
          if (answer->exact) {
            EXPECT_EQ(answer->max_residual_bound, 0.0);
          } else {
            EXPECT_GT(answer->max_residual_bound, 0.0);
          }
          for (const CorpusAnswer& a : answer->answers) {
            EXPECT_EQ(universe.count(a.document), 1u) << a.document;
          }
        }
      }
    });
  }

  mutator.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(batches.load(), 0);
}

}  // namespace
}  // namespace uxm

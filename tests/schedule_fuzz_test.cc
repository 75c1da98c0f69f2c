// The seeded schedule fuzzer: delay-only failpoints (code = kOk, a random
// delay_micros and firing period per run) at the driver's dispatch and the
// kernel's entry perturb when each slot of the corpus scheduler's claim
// loop reaches its next claim, so the interleaving of claims, folds and
// threshold raises differs from run to run. Across workers {1, 2, 4} x
// S {1, 2, 4, 8}, unbudgeted and under max_evaluations, on the skewed
// corpus, every run must keep:
//   * exact answers bit-identical to the exhaustive (bounded = false) run;
//   * a budget-truncated answer certified against the exhaustive answers;
//   * items_total == evaluated + pruned + aborted + failed in aggregate and
//     in every shard_reports entry, with the entries summing to the
//     aggregate.
// Failpoints are compiled in for Debug and the sanitizer builds; elsewhere
// the test skips. Deterministic in its seed, except for the interleavings
// it exists to vary.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "workload/corpus_generator.h"

namespace uxm {
namespace {

bool SameAnswer(const CorpusAnswer& a, const CorpusAnswer& b) {
  return a.document == b.document && a.probability == b.probability &&
         a.matches == b.matches;
}

/// Every item in exactly one bucket, per shard and in aggregate, and the
/// shard entries summing field by field to the aggregate.
void ExpectDispositionInvariant(const CorpusBatchResponse& response,
                                size_t shards, const std::string& label) {
  const CorpusRunReport& r = response.corpus;
  EXPECT_EQ(r.items_total, r.items_evaluated + r.items_pruned +
                               r.items_aborted + r.items_failed)
      << label;
  EXPECT_LE(r.items_aborted_in_kernel + r.items_deadline_skipped,
            r.items_aborted)
      << label;
  EXPECT_LE(r.dispatches, 1) << label;
  ASSERT_EQ(response.shard_reports.size(), shards > 1 ? shards : 0) << label;
  CorpusRunReport sum;
  for (const CorpusRunReport& shard : response.shard_reports) {
    EXPECT_EQ(shard.items_total, shard.items_evaluated + shard.items_pruned +
                                     shard.items_aborted + shard.items_failed)
        << label;
    sum.items_total += shard.items_total;
    sum.items_evaluated += shard.items_evaluated;
    sum.items_pruned += shard.items_pruned;
    sum.items_aborted += shard.items_aborted;
    sum.items_aborted_in_kernel += shard.items_aborted_in_kernel;
    sum.items_failed += shard.items_failed;
    sum.dispatches += shard.dispatches;
    sum.items_deadline_skipped += shard.items_deadline_skipped;
    sum.elapsed_ns += shard.elapsed_ns;
  }
  if (shards <= 1) return;
  EXPECT_EQ(sum.items_total, r.items_total) << label;
  EXPECT_EQ(sum.items_evaluated, r.items_evaluated) << label;
  EXPECT_EQ(sum.items_pruned, r.items_pruned) << label;
  EXPECT_EQ(sum.items_aborted, r.items_aborted) << label;
  EXPECT_EQ(sum.items_aborted_in_kernel, r.items_aborted_in_kernel) << label;
  EXPECT_EQ(sum.items_failed, r.items_failed) << label;
  EXPECT_EQ(sum.dispatches, r.dispatches) << label;
  EXPECT_EQ(sum.items_deadline_skipped, r.items_deadline_skipped) << label;
  EXPECT_EQ(sum.elapsed_ns, r.elapsed_ns) << label;
}

/// A budget-truncated answer: every answer present is a real answer with
/// its exact probability, and every true top-k answer missing from it has
/// probability <= the reported residual bound.
void ExpectCertified(const CorpusQueryResult& got,
                     const std::vector<CorpusAnswer>& all, size_t k,
                     const std::string& label) {
  for (const CorpusAnswer& a : got.answers) {
    bool real = false;
    for (const CorpusAnswer& w : all) real = real || SameAnswer(a, w);
    EXPECT_TRUE(real) << label << ": fabricated answer in " << a.document;
  }
  for (size_t i = 0; i < k && i < all.size(); ++i) {
    bool present = false;
    for (const CorpusAnswer& a : got.answers) {
      present = present || SameAnswer(a, all[i]);
    }
    if (!present) {
      EXPECT_LE(all[i].probability, got.max_residual_bound + 1e-9) << label;
    }
  }
}

class ScheduleFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::CompiledIn()) {
      GTEST_SKIP() << "failpoints not compiled in (UXM_FAULT_INJECTION off)";
    }
    SkewedCorpusOptions gen;
    gen.hot_documents = 3;
    gen.cold_pairs = 2;
    gen.cold_documents_per_pair = 6;
    gen.doc_target_nodes = 60;
    auto scenario = MakeSkewedCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SkewedCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int shards) const {
    SystemOptions opts;
    opts.top_h.h = 30;
    // Uncached, so every run evaluates and the delays shape its claims.
    opts.cache.enable_result_cache = false;
    opts.corpus_shards = shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    for (const SkewedPair& pair : scenario_->pairs) {
      EXPECT_TRUE(sys->PrepareFromMatching(pair.matching).ok());
    }
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      const SkewedPair& pair =
          scenario_->pairs[static_cast<size_t>(scenario_->doc_pair[i])];
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get(),
                                   pair.source.get(), scenario_->target.get())
                      .ok());
    }
    return sys;
  }

  std::unique_ptr<SkewedCorpusScenario> scenario_;
};

TEST_F(ScheduleFuzzTest, RandomClaimTimingKeepsAnswersAndAccounting) {
  const std::vector<std::string> twigs = {scenario_->probe_twig, "//BIG"};
  std::mt19937_64 rng(20261020);
  auto delay_plan = [&rng] {
    FaultPlan plan;
    plan.seed = rng();
    plan.period = 1 + rng() % 3;
    plan.code = StatusCode::kOk;  // delay-only: stall, never fail
    plan.delay_micros = static_cast<uint32_t>(rng() % 250);
    return plan;
  };
  BatchRunOptions one_worker;
  one_worker.num_threads = 1;
  int inexact_runs = 0;
  for (const int shards : {1, 2, 4, 8}) {
    auto sys = MakeSystem(shards);
    CorpusQueryOptions everything;
    everything.bounded = false;
    everything.top_k = 0;
    auto all = sys->RunCorpusBatch(twigs, everything, one_worker);
    ASSERT_TRUE(all.ok()) << all.status();
    for (const int k : {1, 3}) {
      CorpusQueryOptions exhaustive;
      exhaustive.bounded = false;
      exhaustive.top_k = k;
      auto oracle = sys->RunCorpusBatch(twigs, exhaustive, one_worker);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      for (const int workers : {1, 2, 4}) {
        for (const int64_t max_evaluations : {int64_t{0}, int64_t{3}}) {
          for (int rep = 0; rep < 2; ++rep) {
            const std::string label =
                "S=" + std::to_string(shards) + " k=" + std::to_string(k) +
                " workers=" + std::to_string(workers) +
                " max_evaluations=" + std::to_string(max_evaluations) +
                " rep=" + std::to_string(rep);
            FaultInjector::Instance().Arm(FaultSite::kDriverDispatch,
                                          delay_plan());
            FaultInjector::Instance().Arm(FaultSite::kKernelEval,
                                          delay_plan());
            CorpusQueryOptions bounded;
            bounded.top_k = k;
            bounded.max_evaluations = max_evaluations;
            BatchRunOptions run;
            run.num_threads = workers;
            auto got = sys->RunCorpusBatch(twigs, bounded, run);
            FaultInjector::Instance().DisarmAll();

            ASSERT_TRUE(got.ok()) << label << ": " << got.status();
            ExpectDispositionInvariant(*got, static_cast<size_t>(shards),
                                       label);
            EXPECT_EQ(got->corpus.items_total,
                      static_cast<int>(twigs.size() * sys->corpus_size()))
                << label;
            ASSERT_EQ(got->answers.size(), twigs.size()) << label;
            for (size_t q = 0; q < twigs.size(); ++q) {
              ASSERT_TRUE(got->answers[q].ok())
                  << label << ": " << got->answers[q].status();
              const CorpusQueryResult& g = *got->answers[q];
              if (!g.exact) {
                EXPECT_GT(max_evaluations, 0) << label;
                ++inexact_runs;
                ExpectCertified(g, all->answers[q]->answers,
                                static_cast<size_t>(k), label);
                continue;
              }
              const std::vector<CorpusAnswer>& want =
                  oracle->answers[q]->answers;
              ASSERT_EQ(g.answers.size(), want.size()) << label;
              for (size_t i = 0; i < want.size(); ++i) {
                // Exact, not NEAR: no schedule may change a single bit.
                EXPECT_TRUE(SameAnswer(g.answers[i], want[i]))
                    << label << " twig " << q << " answer " << i;
              }
            }
          }
        }
      }
    }
  }
  // The budgeted half must actually truncate, or it certifies nothing.
  EXPECT_GT(inexact_runs, 0);
}

}  // namespace
}  // namespace uxm

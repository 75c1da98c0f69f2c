// Sharded-vs-unsharded differential sweep: the scatter-gather executor's
// exactness contract is that answers are BIT-identical to the
// single-scheduler path for every shard count and every k — same
// documents, same probabilities (exact double equality, not tolerance),
// same match sets, same order. The sweep crosses a multi-pair corpus
// with S in {1, 2, 4, 7} and k in {1, 3, 10}, plus the exhaustive
// evaluate-everything oracle; a skewed single-pair corpus additionally
// pins that pruning actually fires under sharding (the sweep would pass
// vacuously if every item were evaluated).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

void ExpectBitIdenticalAnswers(const CorpusBatchResponse& got,
                               const CorpusBatchResponse& want,
                               const std::string& label) {
  ASSERT_EQ(got.answers.size(), want.answers.size()) << label;
  for (size_t q = 0; q < got.answers.size(); ++q) {
    ASSERT_TRUE(got.answers[q].ok()) << label << ": " << got.answers[q].status();
    ASSERT_TRUE(want.answers[q].ok()) << label;
    const CorpusQueryResult& g = *got.answers[q];
    const CorpusQueryResult& w = *want.answers[q];
    EXPECT_EQ(g.documents_evaluated, w.documents_evaluated) << label;
    ASSERT_EQ(g.answers.size(), w.answers.size())
        << label << " twig " << q;
    for (size_t i = 0; i < g.answers.size(); ++i) {
      EXPECT_EQ(g.answers[i].document, w.answers[i].document)
          << label << " twig " << q << " answer " << i;
      // Exact, not NEAR: sharding must not change a single bit.
      EXPECT_EQ(g.answers[i].probability, w.answers[i].probability)
          << label << " twig " << q << " answer " << i;
      EXPECT_EQ(g.answers[i].matches, w.answers[i].matches)
          << label << " twig " << q << " answer " << i;
    }
  }
}

void ExpectReportInvariant(const CorpusBatchResponse& response,
                           const std::string& label) {
  const CorpusRunReport& r = response.corpus;
  EXPECT_EQ(r.items_total, r.items_evaluated + r.items_pruned +
                               r.items_aborted + r.items_failed)
      << label;
  CorpusRunReport sum;
  for (const CorpusRunReport& shard : response.shard_reports) {
    EXPECT_EQ(shard.items_total, shard.items_evaluated + shard.items_pruned +
                                     shard.items_aborted + shard.items_failed)
        << label;
    sum.items_total += shard.items_total;
    sum.items_evaluated += shard.items_evaluated;
    sum.items_pruned += shard.items_pruned;
    sum.items_aborted += shard.items_aborted;
    sum.items_failed += shard.items_failed;
    sum.items_deadline_skipped += shard.items_deadline_skipped;
    sum.elapsed_ns += shard.elapsed_ns;
  }
  if (!response.shard_reports.empty()) {
    EXPECT_EQ(sum.items_total, r.items_total) << label;
    EXPECT_EQ(sum.items_evaluated, r.items_evaluated) << label;
    EXPECT_EQ(sum.items_pruned, r.items_pruned) << label;
    EXPECT_EQ(sum.items_aborted, r.items_aborted) << label;
    EXPECT_EQ(sum.items_failed, r.items_failed) << label;
    EXPECT_EQ(sum.items_deadline_skipped, r.items_deadline_skipped) << label;
    EXPECT_EQ(sum.elapsed_ns, r.elapsed_ns) << label;
  }
}

// ------------------------------------------------- multi-pair corpus

class ShardedDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_documents = 5;
    gen.min_target_nodes = 120;
    gen.max_target_nodes = 260;
    gen.clone_probability = 0.4;  // cross-document answer overlap
    auto scenario = MakeCorpusScenario("D7", gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ =
        std::make_unique<CorpusScenario>(std::move(scenario).ValueOrDie());
    auto d1 = LoadDataset("D1");
    ASSERT_TRUE(d1.ok()) << d1.status();
    d1_ = std::make_unique<Dataset>(std::move(d1).ValueOrDie());
    d1_doc_ = std::make_unique<Document>(GenerateDocument(
        *d1_->source, DocGenOptions{.seed = 5, .target_nodes = 140}));
  }

  /// A system over BOTH pairs holding the whole corpus, partitioned into
  /// `corpus_shards` shards. Identical serving state for every S — only
  /// the partitioning (and so the scheduler topology) differs.
  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int corpus_shards) {
    SystemOptions opts;
    opts.top_h.h = 25;
    opts.corpus_shards = corpus_shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->dataset.matching).ok());
    EXPECT_TRUE(sys->PrepareFromMatching(d1_->matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get(),
                                   scenario_->dataset.source.get(),
                                   scenario_->dataset.target.get())
                      .ok());
    }
    EXPECT_TRUE(sys->AddDocument("zz-other", d1_doc_.get(),
                                 d1_->source.get(), d1_->target.get())
                    .ok());
    return sys;
  }

  std::vector<std::string> Twigs() const {
    std::vector<std::string> twigs = {TableIIIQueries()[0],
                                      TableIIIQueries()[4]};
    for (SchemaNodeId t : {1, 3}) {
      twigs.push_back("//" + d1_->target->name(t));
    }
    return twigs;
  }

  std::unique_ptr<CorpusScenario> scenario_;
  std::unique_ptr<Dataset> d1_;
  std::unique_ptr<Document> d1_doc_;
};

TEST_F(ShardedDifferentialTest, SweepIsBitIdenticalAcrossShardCountsAndK) {
  const std::vector<std::string> twigs = Twigs();
  BatchRunOptions run;
  run.num_threads = 2;

  auto baseline = MakeSystem(1);
  for (const int k : {1, 3, 10}) {
    CorpusQueryOptions options;
    options.top_k = k;
    auto want = baseline->RunCorpusBatch(twigs, options, run);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_TRUE(want->shard_reports.empty());  // S=1: single scheduler
    ExpectReportInvariant(*want, "S=1 k=" + std::to_string(k));

    // The exhaustive fan-out is the ground-truth oracle for this k.
    CorpusQueryOptions exhaustive = options;
    exhaustive.bounded = false;
    auto oracle = baseline->RunCorpusBatch(twigs, exhaustive, run);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ExpectBitIdenticalAnswers(*want, *oracle, "S=1 vs oracle k=" +
                                                  std::to_string(k));

    for (const int s : {2, 4, 7}) {
      const std::string label =
          "S=" + std::to_string(s) + " k=" + std::to_string(k);
      auto sys = MakeSystem(s);
      auto got = sys->RunCorpusBatch(twigs, options, run);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status();
      EXPECT_EQ(got->shard_reports.size(), static_cast<size_t>(s)) << label;
      ExpectBitIdenticalAnswers(*got, *want, label);
      ExpectReportInvariant(*got, label);
    }
  }
}

TEST_F(ShardedDifferentialTest, RacingShardsWithoutProbesStayExact) {
  // probe_bounds=false leaves every item on the shared pair-level bound,
  // so nothing is pruned up front and the shards genuinely race the
  // shared thresholds (aborts in flight, in-kernel cancellations). The
  // answers must not wobble across repeats.
  const std::vector<std::string> twigs = Twigs();
  BatchRunOptions run;
  run.num_threads = 4;
  CorpusQueryOptions options;
  options.top_k = 3;
  options.probe_bounds = false;

  auto baseline = MakeSystem(1);
  auto want = baseline->RunCorpusBatch(twigs, options, run);
  ASSERT_TRUE(want.ok()) << want.status();
  auto sys = MakeSystem(4);
  for (int it = 0; it < 4; ++it) {
    auto got = sys->RunCorpusBatch(twigs, options, run);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectBitIdenticalAnswers(*got, *want,
                              "race iteration " + std::to_string(it));
    ExpectReportInvariant(*got, "race iteration " + std::to_string(it));
  }
}

// ------------------------------------------------- pruning non-vacuity

TEST(ShardedPruningTest, SkewedCorpusPrunesAcrossShardsAndStaysExact) {
  // Sized so pruning fires DETERMINISTICALLY, not just probably: with
  // k=1 a hot document — sorted first by its bound — fills the tracker
  // long before the last of the 48 items is claimed, and every cold
  // document claimed after that prunes, no matter how the workers'
  // timing resolves.
  SinglePairCorpusOptions gen;
  gen.hot_documents = 2;
  gen.cold_documents = 46;
  gen.doc_target_nodes = 100;
  auto scenario = MakeSinglePairCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  SystemOptions opts;
  opts.top_h.h = 16;  // fully enumerate: analytic bound masses hold
  opts.corpus_shards = 4;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.PrepareFromMatching(scenario->matching).ok());
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    ASSERT_TRUE(
        sys.AddDocument(scenario->names[i], scenario->documents[i].get())
            .ok());
  }

  BatchRunOptions run;
  run.num_threads = 2;
  CorpusQueryOptions bounded;
  bounded.top_k = 1;  // one hot answer fills the tracker
  CorpusQueryOptions exhaustive = bounded;
  exhaustive.bounded = false;

  const std::vector<std::string> twigs = {scenario->probe_twig};
  auto want = sys.RunCorpusBatch(twigs, exhaustive, run);
  ASSERT_TRUE(want.ok()) << want.status();
  auto got = sys.RunCorpusBatch(twigs, bounded, run);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdenticalAnswers(*got, *want, "skewed");
  ExpectReportInvariant(*got, "skewed");
  // The whole point of the global threshold: cold documents are pruned
  // even though they live in different shards than the hot ones.
  EXPECT_GT(got->corpus.items_pruned, 0) << "sweep would be vacuous";
}

}  // namespace
}  // namespace uxm

// Concurrency stress for sharded corpus serving, intended to run under
// ThreadSanitizer: mutator threads add and remove corpus documents while
// reader threads run sharded bounded corpus batches. Every batch runs
// against one immutable published snapshot, so the races under test are
// the publication handoff (store mutation vs snapshot grab), the claim
// slots' shared TwigRace state, and the registry Touch stamps —
// not answer content, which legitimately differs per snapshot instant.
// Each response must still be internally consistent: per-shard and
// aggregate disposition invariants, and every answer naming a document
// that existed in SOME registration state.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/corpus_generator.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

class ShardedCorpusStressTest : public ::testing::Test {
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

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

TEST_F(ShardedCorpusStressTest, MutationsRaceShardedBatchesSafely) {
  SystemOptions opts;
  opts.top_h.h = 16;
  opts.corpus_shards = 4;
  // Uncached so every batch actually evaluates work on the racing claim
  // slots instead of retiring on cache hits.
  opts.cache.enable_result_cache = false;
  opts.cache.enable_bound_cache = false;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.PrepareFromMatching(scenario_->matching).ok());

  // A stable core the readers always see, plus a churn set the mutator
  // adds and removes mid-flight.
  const size_t stable = scenario_->documents.size() / 2;
  for (size_t i = 0; i < stable; ++i) {
    ASSERT_TRUE(
        sys.AddDocument(scenario_->names[i], scenario_->documents[i].get())
            .ok());
  }
  std::set<std::string> universe(scenario_->names.begin(),
                                 scenario_->names.end());

  const std::vector<std::string> twigs = {scenario_->probe_twig,
                                          scenario_->deep_probe_twig};
  BatchRunOptions run;
  run.num_threads = 2;
  CorpusQueryOptions options;
  options.top_k = 3;
  options.probe_bounds = false;  // keep items in flight for the race

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::atomic<bool> failed{false};

  std::thread mutator([&] {
    // Churn the non-stable documents: add all, remove all, repeat. Every
    // mutation republishes the sharded snapshot under the facade lock.
    // Keep churning until the readers have raced at least a few whole
    // batches (a batch is much slower than a churn round, so a fixed
    // round count can finish before the first batch does on a loaded
    // host); the round cap keeps a wedged reader from hanging the test
    // rather than failing its batch-count assertion.
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
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto got = sys.RunCorpusBatch(twigs, options, run);
        if (!got.ok()) {
          failed.store(true);
          break;
        }
        batches.fetch_add(1);
        const CorpusRunReport& rep = got->corpus;
        EXPECT_EQ(rep.items_total, rep.items_evaluated + rep.items_pruned +
                                       rep.items_aborted + rep.items_failed);
        EXPECT_EQ(rep.items_failed, 0);
        for (const CorpusRunReport& shard : got->shard_reports) {
          EXPECT_EQ(shard.items_total,
                    shard.items_evaluated + shard.items_pruned +
                        shard.items_aborted + shard.items_failed);
        }
        for (const auto& answer : got->answers) {
          if (!answer.ok()) {
            failed.store(true);
            break;
          }
          // Snapshots are consistent instants: every named document is
          // from the known universe, and at least the stable core was
          // visible to the fan-out.
          EXPECT_GE(answer->documents_evaluated, static_cast<int>(stable));
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

// Sharded corpus serving unit tests: the stable name-hash assignment,
// the ShardedDocumentStore partition invariant, and the facade's sharded
// path (shard reports, shard accessors, per-shard
// snapshot export guards). The exactness sweep across shard counts lives
// in sharded_differential_test.cc; the mutation/query race lives in
// shard_stress_test.cc.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "core/system.h"
#include "shard/sharded_store.h"
#include "test_util.h"
#include "workload/corpus_generator.h"

namespace uxm {
namespace {

using testutil::MakePaperExample;
using testutil::PaperExample;

// ---------------------------------------------------------- assignment

TEST(ShardAssignmentTest, IsAStableFunctionOfTheName) {
  // The routing contract: FNV-1a-64 of the name, modulo the shard count.
  // Pinning the formula (not just determinism) is what makes per-shard
  // snapshots a replica-bootstrap path — any process, any build, any
  // session routes the same name to the same shard.
  for (const std::string name : {"doc-00", "a", "", "zz-other"}) {
    for (const size_t shards : {2u, 4u, 7u, 8u}) {
      EXPECT_EQ(ShardForDocument(name, shards),
                Fnv1a64(name.data(), name.size()) % shards)
          << name << " over " << shards;
      EXPECT_LT(ShardForDocument(name, shards), shards);
    }
    // Degenerate counts collapse to the one shard.
    EXPECT_EQ(ShardForDocument(name, 1), 0u);
    EXPECT_EQ(ShardForDocument(name, 0), 0u);
  }
}

TEST(ShardAssignmentTest, DefaultShardCountIsBoundedAndPositive) {
  const int count = DefaultShardCount();
  EXPECT_GE(count, 1);
  EXPECT_LE(count, 8);
}

// --------------------------------------------------------------- store

class ShardedStoreTest : public ::testing::Test {
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

  /// The structural invariant of every published snapshot: `all` and the
  /// shard views are name-sorted, the shards are disjoint, their union
  /// is `all`, and every document sits in its name's shard.
  static void ExpectPartitionInvariant(const ShardedCorpusSnapshot& snap) {
    std::set<std::string> merged;
    for (const CorpusDocument& e : *snap.all) {
      EXPECT_TRUE(merged.insert(e.name).second) << e.name;
    }
    std::set<std::string> from_shards;
    for (size_t s = 0; s < snap.shards.size(); ++s) {
      ASSERT_NE(snap.shards[s], nullptr);
      std::string prev;
      for (const CorpusDocument& e : *snap.shards[s]) {
        EXPECT_EQ(ShardForDocument(e.name, snap.shards.size()), s) << e.name;
        EXPECT_TRUE(from_shards.insert(e.name).second) << e.name;
        EXPECT_LT(prev, e.name);  // name-sorted within the shard
        prev = e.name;
      }
    }
    EXPECT_EQ(merged, from_shards);
    for (size_t i = 1; i < snap.all->size(); ++i) {
      EXPECT_LT((*snap.all)[i - 1].name, (*snap.all)[i].name);
    }
  }

  PaperExample example_;
  std::shared_ptr<const AnnotatedDocument> annotated_;
  std::shared_ptr<const PreparedSchemaPair> pair_;
};

TEST_F(ShardedStoreTest, PartitionsByNameHashAndMirrorsDocumentStore) {
  ShardedDocumentStore store(4);
  EXPECT_EQ(store.num_shards(), 4u);
  const std::vector<std::string> names = {"a", "b", "c", "doc-00", "doc-01",
                                          "doc-02", "x", "y", "z"};
  for (const std::string& name : names) {
    ASSERT_TRUE(store.Add(Entry(name)).ok());
    EXPECT_EQ(store.ShardOf(name), ShardForDocument(name, 4));
  }
  EXPECT_EQ(store.size(), names.size());
  EXPECT_EQ(store.Names(), names);  // already sorted
  ExpectPartitionInvariant(*store.Snapshot());

  // Duplicate names are rejected globally (one name = one shard).
  EXPECT_EQ(store.Add(Entry("a")).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.Remove("b").ok());
  EXPECT_TRUE(store.Remove("b").IsNotFound());
  EXPECT_EQ(store.size(), names.size() - 1);
  ExpectPartitionInvariant(*store.Snapshot());

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  ExpectPartitionInvariant(*store.Snapshot());
}

TEST_F(ShardedStoreTest, SnapshotsAreImmutableConsistentInstants) {
  ShardedDocumentStore store(3);
  ASSERT_TRUE(store.Add(Entry("a")).ok());
  auto before = store.Snapshot();
  ASSERT_TRUE(store.Add(Entry("b")).ok());
  ASSERT_TRUE(store.Remove("a").ok());
  // The earlier snapshot still sees exactly its instant, merged AND
  // per-shard.
  ASSERT_EQ(before->all->size(), 1u);
  EXPECT_EQ((*before->all)[0].name, "a");
  ExpectPartitionInvariant(*before);
  auto after = store.Snapshot();
  ASSERT_EQ(after->all->size(), 1u);
  EXPECT_EQ((*after->all)[0].name, "b");
  ExpectPartitionInvariant(*after);
}

TEST_F(ShardedStoreTest, PairWideOperationsFanOutOverEveryShard) {
  ShardedDocumentStore store(4);
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f"};
  for (const std::string& name : names) {
    ASSERT_TRUE(store.Add(Entry(name, 5)).ok());
  }
  // Rebind touches every shard's entries of the pair's key.
  auto reprepared = testutil::MakePaperPair(example_);
  EXPECT_EQ(store.RebindPair(reprepared, 9),
            static_cast<int>(names.size()));
  for (const CorpusDocument& e : *store.Snapshot()->all) {
    EXPECT_EQ(e.epoch, 9u);
    EXPECT_EQ(e.pair.get(), reprepared.get());
  }
  store.Restamp(12);
  for (const CorpusDocument& e : *store.Snapshot()->all) {
    EXPECT_EQ(e.epoch, 12u);
  }
  // Dropping the pair empties every shard at once.
  EXPECT_EQ(store.RemovePairDocuments(example_.source.get(),
                                      example_.target.get()),
            static_cast<int>(names.size()));
  EXPECT_EQ(store.size(), 0u);
  ExpectPartitionInvariant(*store.Snapshot());
}

TEST_F(ShardedStoreTest, EveryShardCountPublishesTheSameMergedView) {
  ShardedDocumentStore one(1);
  ShardedDocumentStore four(4);
  // At S = 1 the one shard view IS the merged view, after every publish.
  auto expect_shared_view = [&one] {
    const auto snap = one.Snapshot();
    ASSERT_EQ(snap->shards.size(), 1u);
    EXPECT_EQ(snap->shards[0].get(), snap->all.get());
  };
  expect_shared_view();

  PaperExample other = MakePaperExample();
  const auto other_pair = testutil::MakePaperPair(other);
  const auto reprepared = testutil::MakePaperPair(example_);
  for (ShardedDocumentStore* store : {&one, &four}) {
    uint64_t epoch = 1;
    for (const std::string name : {"m", "c", "x", "a", "doc-1", "doc-0"}) {
      ASSERT_TRUE(store->Add(Entry(name, epoch++)).ok()) << name;
    }
    for (const std::string name : {"o-1", "o-0"}) {
      CorpusDocument entry = Entry(name, epoch++);
      entry.pair = other_pair;
      ASSERT_TRUE(store->Add(std::move(entry)).ok()) << name;
    }
    ASSERT_TRUE(store->Remove("x").ok());
    EXPECT_EQ(store->RebindPair(reprepared, 20), 5);
    store->Restamp(21);
    ASSERT_TRUE(store->Add(Entry("b", 22)).ok());
    EXPECT_EQ(store->RemovePairDocuments(other.source.get(),
                                         other.target.get()),
              2);
    ASSERT_TRUE(store->Add(Entry("z", 23)).ok());
    ExpectPartitionInvariant(*store->Snapshot());
  }
  expect_shared_view();

  const CorpusSnapshot& a = *one.Snapshot()->all;
  const CorpusSnapshot& b = *four.Snapshot()->all;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].doc, b[i].doc) << i;
    EXPECT_EQ(a[i].annotated, b[i].annotated) << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << i;
    EXPECT_EQ(a[i].pair, b[i].pair) << i;
  }
}

TEST_F(ShardedStoreTest, OneWriteRebuildsOnlyItsShardView) {
  ShardedDocumentStore store(4);
  for (const std::string name : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    ASSERT_TRUE(store.Add(Entry(name)).ok()) << name;
  }
  // Every view must equal a fresh stable partition of `all`.
  auto expect_fresh_partition = [](const ShardedCorpusSnapshot& snap) {
    std::vector<CorpusSnapshot> fresh(snap.shards.size());
    for (const CorpusDocument& e : *snap.all) {
      fresh[ShardForDocument(e.name, fresh.size())].push_back(e);
    }
    for (size_t s = 0; s < fresh.size(); ++s) {
      const CorpusSnapshot& view = *snap.shards[s];
      ASSERT_EQ(view.size(), fresh[s].size()) << "shard " << s;
      for (size_t i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view[i].name, fresh[s][i].name);
        EXPECT_EQ(view[i].annotated, fresh[s][i].annotated);
        EXPECT_EQ(view[i].epoch, fresh[s][i].epoch);
        EXPECT_EQ(view[i].pair, fresh[s][i].pair);
      }
    }
  };
  // After one Add and then one Remove, the other three views are the
  // previous snapshot's pointers; only the written name's view is new.
  for (const bool add : {true, false}) {
    const auto before = store.Snapshot();
    const std::string name = "m";
    ASSERT_TRUE(add ? store.Add(Entry(name)).ok() : store.Remove(name).ok());
    const auto after = store.Snapshot();
    const size_t changed = store.ShardOf(name);
    for (size_t s = 0; s < 4; ++s) {
      if (s == changed) {
        EXPECT_NE(after->shards[s].get(), before->shards[s].get());
      } else {
        EXPECT_EQ(after->shards[s].get(), before->shards[s].get()) << s;
      }
    }
    expect_fresh_partition(*after);
    ExpectPartitionInvariant(*after);
  }
}

TEST_F(ShardedStoreTest, AddAllRegistersAllOrNothing) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedDocumentStore store(shards);
    ASSERT_TRUE(store.Add(Entry("b")).ok());
    std::vector<CorpusDocument> batch;
    for (const std::string name : {"d", "a", "c"}) batch.push_back(Entry(name));
    ASSERT_TRUE(store.AddAll(std::move(batch)).ok());
    EXPECT_EQ(store.Names(), (std::vector<std::string>{"a", "b", "c", "d"}));
    ExpectPartitionInvariant(*store.Snapshot());

    // A rejected batch publishes nothing: the snapshot pointer survives.
    const auto published = store.Snapshot();
    auto expect_rejected = [&](std::vector<std::string> names,
                               StatusCode code) {
      std::vector<CorpusDocument> entries;
      for (const std::string& name : names) entries.push_back(Entry(name));
      EXPECT_EQ(store.AddAll(std::move(entries)).code(), code);
      EXPECT_EQ(store.Snapshot(), published);
    };
    expect_rejected({"e", "b"}, StatusCode::kAlreadyExists);  // live name
    expect_rejected({"f", "g", "f"}, StatusCode::kAlreadyExists);  // in-batch
    expect_rejected({"h", ""}, StatusCode::kInvalidArgument);
    EXPECT_EQ(store.size(), 4u);
  }
}

// -------------------------------------------------------------- facade

class ShardedFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 2;
    gen.cold_documents = 9;
    gen.doc_target_nodes = 80;
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int corpus_shards) {
    SystemOptions opts;
    opts.top_h.h = 16;
    opts.corpus_shards = corpus_shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get())
                      .ok());
    }
    return sys;
  }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

TEST_F(ShardedFacadeTest, ExposesDeterministicShardLayout) {
  auto sys = MakeSystem(3);
  EXPECT_EQ(sys->corpus_shard_count(), 3u);
  for (const std::string& name : scenario_->names) {
    EXPECT_EQ(sys->CorpusShardOf(name), ShardForDocument(name, 3));
  }
  // <= 0 selects the default count.
  UncertainMatchingSystem auto_sharded((SystemOptions()));
  EXPECT_EQ(auto_sharded.corpus_shard_count(),
            static_cast<size_t>(DefaultShardCount()));
}

TEST_F(ShardedFacadeTest, ShardedBatchReportsPerShardAndSumsToGlobal) {
  auto sys = MakeSystem(4);
  const std::vector<std::string> twigs = {scenario_->probe_twig,
                                          scenario_->deep_probe_twig};
  BatchRunOptions run;
  run.num_threads = 2;
  CorpusQueryOptions options;
  options.top_k = 3;
  auto got = sys->RunCorpusBatch(twigs, options, run);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->shard_reports.size(), 4u);
  CorpusRunReport sum;
  int populated = 0;
  for (const CorpusRunReport& shard : got->shard_reports) {
    // The disposition invariant holds for every shard's items.
    EXPECT_EQ(shard.items_total, shard.items_evaluated + shard.items_pruned +
                                     shard.items_aborted +
                                     shard.items_failed);
    EXPECT_LE(shard.items_aborted_in_kernel, shard.items_aborted);
    populated += shard.items_total > 0 ? 1 : 0;
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
  EXPECT_GT(populated, 1);  // 11 names over 4 shards: several non-empty
  EXPECT_EQ(got->corpus.items_total, sum.items_total);
  EXPECT_EQ(got->corpus.items_evaluated, sum.items_evaluated);
  EXPECT_EQ(got->corpus.items_pruned, sum.items_pruned);
  EXPECT_EQ(got->corpus.items_aborted, sum.items_aborted);
  EXPECT_EQ(got->corpus.items_aborted_in_kernel, sum.items_aborted_in_kernel);
  EXPECT_EQ(got->corpus.items_failed, sum.items_failed);
  EXPECT_EQ(got->corpus.dispatches, sum.dispatches);
  EXPECT_EQ(got->corpus.items_deadline_skipped, sum.items_deadline_skipped);
  // elapsed_ns is the run's time, apportioned across the shard entries.
  EXPECT_EQ(got->corpus.elapsed_ns, sum.elapsed_ns);
  EXPECT_GT(got->corpus.elapsed_ns, 0);
  EXPECT_EQ(got->corpus.items_total,
            static_cast<int>(twigs.size() * scenario_->names.size()));

  // S = 1 leaves shard_reports empty.
  auto unsharded = MakeSystem(1);
  auto single = unsharded->RunCorpusBatch(twigs, options, run);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_TRUE(single->shard_reports.empty());
}

TEST_F(ShardedFacadeTest, ShardSnapshotExportValidatesTheShardIndex) {
  auto sys = MakeSystem(2);
  EXPECT_TRUE(
      sys->SaveShardSnapshot(2, "/nonexistent/dir/s.uxm").IsInvalidArgument());
  EXPECT_TRUE(
      sys->SaveShardSnapshot(7, "/nonexistent/dir/s.uxm").IsInvalidArgument());
}

}  // namespace
}  // namespace uxm

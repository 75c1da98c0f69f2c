// The traced run's layer replay: a seeded sample of the workload's
// requests, sent straight through each layer's public entry point so
// every layer's cost is timed from outside the library.
#include <unistd.h>

#include <cstdio>
#include <set>
#include <utility>

#include "blocktree/block_tree.h"
#include "cache/bound_cache.h"
#include "cache/result_cache.h"
#include "common/arena.h"
#include "common/random.h"
#include "exec/batch_executor.h"
#include "mapping/top_h.h"
#include "matching/matcher.h"
#include "plan/driver.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/flat_kernel.h"
#include "shard/sharded_corpus_executor.h"
#include "shard/sharded_store.h"
#include "snapshot/snapshot_loader.h"
#include "workloads.h"
#include "xml/xml_parser.h"

namespace uxmbench {

namespace {

// Sample sizes: enough spans for a median, small enough that the replay
// stays a few seconds beside the matcher runs.
constexpr size_t kReplayDocs = 48;
constexpr int kBatchRuns = 3;
constexpr int kSnapshotReps = 3;
constexpr size_t kCoreWrites = 16;

struct ReplayDoc {
  std::unique_ptr<uxm::Document> doc;
  std::shared_ptr<const uxm::AnnotatedDocument> annotated;
  size_t pair = 0;
  std::string name;
  std::string twig;
};

}  // namespace

void ReplayLayers(WorkloadId workload, const Inputs& in,
                  const RunConfig& config, Served* measured, Tracer* tr) {
  const uxm::SystemOptions opts = MeasuredOptions();
  uxm::Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 17);

  // Preparation, one layer at a time, for every pair of the workload.
  std::vector<std::shared_ptr<const uxm::PreparedSchemaPair>> pairs;
  for (const PairInput& p : in.pairs) {
    Tracer::Scope span(tr, "replay.pair");
    uxm::MatcherOptions m = opts.matcher;
    m.strategy = p.strategy;
    uxm::Result<uxm::SchemaMatching> matching = [&] {
      Tracer::Scope s(tr, "matching.match");
      return uxm::ComposedMatcher(m).Match(*p.source, *p.target);
    }();
    if (!matching.ok()) {
      tr->Count("replay.failures", 1);
      return;
    }
    tr->Count("matching.correspondences", matching->size());
    uxm::Result<uxm::PossibleMappingSet> mappings = [&] {
      Tracer::Scope s(tr, "mapping.top_h");
      return uxm::TopHGenerator(opts.top_h).Generate(*matching);
    }();
    if (mappings.ok()) {
      Tracer::Scope s(tr, "blocktree.build");
      auto built = uxm::BlockTreeBuilder(opts.block_tree).Build(*mappings);
      if (built.ok()) tr->Count("blocktree.blocks", built->tree.TotalBlocks());
    }
    uxm::PairBuildOptions build;
    build.top_h = opts.top_h;
    build.block_tree = opts.block_tree;
    build.max_embeddings = opts.ptq.max_embeddings;
    Tracer::Scope s(tr, "plan.pair_build");
    auto pair = uxm::BuildPreparedSchemaPair(*matching, build);
    if (!pair.ok()) {
      tr->Count("replay.failures", 1);
      return;
    }
    pairs.push_back(*pair);
  }

  // Documents: parse and annotate a sample of the initial corpus, each
  // paired with a twig from the workload's own mix.
  std::vector<ReplayDoc> docs;
  for (size_t i = 0; i < kReplayDocs; ++i) {
    const DocInput& d = in.initial_docs[rng.Index(in.initial_docs.size())];
    Tracer::Scope span(tr, "replay.ingest");
    ReplayDoc rd;
    rd.pair = d.pair;
    rd.name = "replay-" + std::to_string(i);
    {
      Tracer::Scope s(tr, "xml.parse");
      auto parsed = uxm::ParseXml(d.xml);
      if (!parsed.ok()) continue;
      rd.doc = std::make_unique<uxm::Document>(std::move(parsed).ValueOrDie());
    }
    {
      Tracer::Scope s(tr, "query.annotate");
      auto bound = uxm::AnnotatedDocument::Bind(rd.doc.get(),
                                                in.pairs[d.pair].source.get());
      if (!bound.ok()) continue;
      rd.annotated = std::make_shared<const uxm::AnnotatedDocument>(
          std::move(bound).ValueOrDie());
    }
    if (workload == WorkloadId::kColdStart) {
      std::vector<const std::string*> mine;
      for (const FirstQuery& fq : in.first_queries) {
        if (fq.pair == d.pair) mine.push_back(&fq.twig);
      }
      rd.twig = *mine[rng.Index(mine.size())];
    } else if (workload == WorkloadId::kTopkCold) {
      rd.twig = in.cold_twigs[rng.Index(in.cold_twigs.size())];
    } else {
      rd.twig = in.hot_twigs[in.client_hot_sequence[0][i]];
    }
    docs.push_back(std::move(rd));
  }

  // Items: compile, the driver's whole protocol, the bare kernel, and a
  // result-cache hit, each on the same (twig, document, pair).
  uxm::PtqOptions ptq = opts.ptq;
  ptq.top_k = kTopK;
  uxm::MonotonicScratch arena;
  uxm::ResultCache results;
  std::set<std::pair<size_t, std::string>> compiled;
  for (const ReplayDoc& rd : docs) {
    const uxm::PreparedSchemaPair& pair = *pairs[rd.pair];
    Tracer::Scope span(tr, "replay.item");
    bool hit = false;
    uxm::Result<std::shared_ptr<const uxm::QueryPlan>> plan = [&] {
      Tracer::Scope s(tr, compiled.insert({rd.pair, rd.twig}).second
                              ? "plan.compile"
                              : "plan.compile_hit");
      return pair.compiler->Compile(rd.twig, &hit);
    }();
    if (!plan.ok()) {
      tr->Count("replay.failures", 1);
      continue;
    }
    uxm::DriverRequest req;
    req.pair = &pair;
    req.doc = rd.annotated.get();
    req.twig = &rd.twig;
    req.options = ptq;
    {
      Tracer::Scope s(tr, "plan.execute");
      if (!uxm::ExecutionDriver::Execute(req).ok()) tr->Count("replay.failures", 1);
    }
    const std::vector<uxm::MappingId> selected = (*plan)->SelectForTopK(kTopK);
    {
      Tracer::Scope s(tr, "query.kernel");
      arena.Reset();
      auto r = uxm::EvaluateTreeFlat((*plan)->query(), (*plan)->embeddings(),
                                     selected, (*plan)->truncated_embeddings(),
                                     *pair.flat, *rd.annotated, ptq, &arena);
      if (!r.ok()) tr->Count("replay.failures", 1);
    }
    req.cache = &results;
    req.epoch = 1;
    uxm::ExecutionDriver::Execute(req);  // miss: inserts the answer
    uxm::DriverCounters counters;
    {
      Tracer::Scope s(tr, "cache.result_hit");
      uxm::ExecutionDriver::Execute(req, &counters);
    }
    if (!counters.result_hit) tr->Count("replay.failures", 1);
  }

  // The batch executor over all sampled items, without caches.
  uxm::BatchExecutorOptions exec_opts;
  exec_opts.ptq = ptq;
  uxm::BatchQueryExecutor executor(exec_opts);
  std::vector<uxm::BatchQueryItem> batch;
  for (const ReplayDoc& rd : docs) {
    uxm::BatchQueryItem item;
    item.doc = rd.annotated.get();
    item.twig = rd.twig;
    item.pair = pairs[rd.pair];
    batch.push_back(std::move(item));
  }
  for (int run = 0; run < kBatchRuns && !batch.empty(); ++run) {
    uxm::BatchRunReport report;
    {
      Tracer::Scope s(tr, "exec.batch_run");
      executor.Run(batch, nullptr, &report);
    }
    double max_items = 0.0;
    for (int n : report.items_per_thread) max_items = std::max<double>(max_items, n);
    tr->Count("exec.batch_items", static_cast<double>(batch.size()));
    tr->Count("exec.imbalance_sum",
              max_items / (static_cast<double>(batch.size()) /
                           std::max(1, report.num_threads)));
    tr->Count("exec.batch_runs", 1);
  }

  // The sharded corpus executor over the sampled documents.
  uxm::ShardedDocumentStore store(opts.corpus_shards);
  for (size_t i = 0; i < docs.size(); ++i) {
    uxm::CorpusDocument entry;
    entry.name = docs[i].name;
    entry.doc = docs[i].doc.get();
    entry.annotated = docs[i].annotated;
    entry.epoch = i + 1;
    entry.pair = pairs[docs[i].pair];
    store.Add(std::move(entry));
  }
  uxm::BoundCache bounds;
  uxm::ShardedCorpusExecutor sharded(&executor, &bounds);
  const auto corpus = store.Snapshot();
  std::set<std::string> twigs;
  for (const ReplayDoc& rd : docs) twigs.insert(rd.twig);
  for (const std::string& twig : twigs) {
    uxm::CorpusQueryOptions o;
    o.top_k = kTopK;
    Tracer::Scope s(tr, "corpus.sharded_run");
    if (!sharded.Run(*corpus, {twig}, o, nullptr).ok()) {
      tr->Count("replay.failures", 1);
    }
  }

  // Snapshot save (through the system) and load (the loader itself).
  const std::string path = config.tmpdir + "/replay-" +
                           std::to_string(::getpid()) + ".uxmsnap";
  for (int rep = 0; rep < kSnapshotReps; ++rep) {
    uxm::SnapshotStats stats;
    uxm::Status st;
    {
      Tracer::Scope s(tr, "snapshot.save");
      st = measured->system->SaveSnapshot(path, &stats);
    }
    if (!st.ok()) {
      tr->Count("replay.failures", 1);
      break;
    }
    if (rep == 0) tr->Count("snapshot.bytes", static_cast<double>(stats.file_bytes));
    Tracer::Scope s(tr, "snapshot.load");
    if (!uxm::LoadSnapshot(path).ok()) tr->Count("replay.failures", 1);
  }
  std::remove(path.c_str());

  // Corpus writes on the measured system: remove a sample of its
  // documents and add them back. ingest_mix times these under load.
  if (workload != WorkloadId::kIngestMix) {
    for (size_t i = 0; i < kCoreWrites; ++i) {
      const DocInput& d = in.initial_docs[rng.Index(in.initial_docs.size())];
      const auto it = measured->docs.find(d.name);
      if (it == measured->docs.end()) continue;
      uxm::Status st;
      {
        Tracer::Scope s(tr, "core.remove_document");
        st = measured->system->RemoveDocument(d.name);
      }
      if (!st.ok()) {
        tr->Count("replay.failures", 1);
        continue;
      }
      const PairInput& p = in.pairs[d.pair];
      Tracer::Scope s(tr, "core.add_document");
      if (!measured->system
               ->AddDocument(d.name, it->second.get(), p.source.get(),
                             p.target.get())
               .ok()) {
        tr->Count("replay.failures", 1);
      }
    }
  }
}

}  // namespace uxmbench

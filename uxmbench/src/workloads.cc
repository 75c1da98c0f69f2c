#include "workloads.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "matching/matcher.h"
#include "stats.h"
#include "xml/xml_parser.h"

namespace uxmbench {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
/// CPU time of every thread of the process — the library's pool and
/// shard threads included. Time the hypervisor steals is not in it.
int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Restore passes after each bring-up, and the time after which no more
// are started once the minimum is in.
constexpr int kMinRestorePasses = 2;
constexpr int kMaxRestorePasses = 7;
constexpr double kRestoreBudgetS = 0.7;
// Answers each client keeps (reservoir-sampled) for the oracle.
constexpr size_t kOracleSamplesPerClient = 16;
// Length of the windows a concurrent phase is ranked in.
constexpr double kWindowS = 1.0;

/// Attempted/failed operations of one thread, merged at the end.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Check(const uxm::Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) Fail(what + ": " + st.ToString());
  }
  void MergeInto(EndToEnd* e) const {
    e->attempted += attempted;
    e->failed += failed;
    for (const auto& s : errors) {
      if (e->errors.size() < 5) e->errors.push_back(s);
    }
  }
};

/// Where a run's samples go. In a traced run every other unit of work
/// (bring-up, restore pass, one-second window of a concurrent phase) runs
/// with the tracer and lands in `traced`; the rest run untraced. Drift of
/// a shared host then hits both halves alike, and their difference is
/// the tracing overhead.
struct Sinks {
  EndToEnd* untraced = nullptr;
  EndToEnd* traced = nullptr;  ///< null: an untraced run
  Tracer* tracer = nullptr;

  bool Traced(int64_t unit) const {
    return traced != nullptr && tracer != nullptr && unit % 2 == 1;
  }
  Tracer* For(bool traced_unit) const { return traced_unit ? tracer : nullptr; }
  EndToEnd* Into(bool traced_unit) const {
    return traced_unit ? traced : untraced;
  }
};

/// One answer kept for the oracle. `window_start` >= 0 marks an
/// ingest_mix answer computed while the sliding window was stable; the
/// oracle restricts its query to that window.
struct Sampled {
  std::string twig;
  std::vector<std::string> documents;
  int64_t window_start = -1;
  uxm::CorpusQueryResult answer;
};

bool SameAnswers(const uxm::CorpusQueryResult& a,
                 const uxm::CorpusQueryResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    const uxm::CorpusAnswer& x = a.answers[i];
    const uxm::CorpusAnswer& y = b.answers[i];
    if (x.document != y.document || x.probability != y.probability ||
        x.matches != y.matches) {
      return false;
    }
  }
  return true;
}

void Reset(Served* s) {
  s->system.reset();
  s->docs.clear();
}

uxm::Status PreparePair(uxm::UncertainMatchingSystem* sys,
                        const PairInput& p) {
  // Prepare matches with the system's matcher options; a pair whose
  // Table II option differs is matched by the caller and registered
  // with PrepareFromMatching, as a user would.
  if (p.strategy == MeasuredOptions().matcher.strategy) {
    return sys->Prepare(p.source.get(), p.target.get());
  }
  uxm::MatcherOptions m = MeasuredOptions().matcher;
  m.strategy = p.strategy;
  auto matching = uxm::ComposedMatcher(m).Match(*p.source, *p.target);
  if (!matching.ok()) return matching.status();
  return sys->PrepareFromMatching(std::move(matching).ValueOrDie());
}

/// ParseXml + AddDocument of one document into `s`.
uxm::Status Ingest(Served* s, const Inputs& in, const DocInput& d,
                   Tracer* tr) {
  Tracer::Scope span(tr, "load.ingest");
  uxm::Result<uxm::Document> parsed = [&] {
    Tracer::Scope parse(tr, "xml.parse");
    return uxm::ParseXml(d.xml);
  }();
  if (!parsed.ok()) return parsed.status();
  auto& slot = s->docs[d.name];
  slot = std::make_unique<uxm::Document>(std::move(parsed).ValueOrDie());
  const uxm::Document* doc = slot.get();
  const PairInput& p = in.pairs[d.pair];
  Tracer::Scope add(tr, "core.add_document");
  return s->system->AddDocument(d.name, doc, p.source.get(), p.target.get());
}

/// Per-query counts from the public report structs.
void CountReport(Tracer* tr, const uxm::CorpusBatchResponse& r,
                 int64_t wall_ns, int64_t cpu_ns) {
  const uxm::CorpusRunReport& c = r.corpus;
  tr->Count("corpus.queries", 1);
  tr->Count("corpus.items_total", c.items_total);
  tr->Count("corpus.items_evaluated", c.items_evaluated);
  tr->Count("corpus.items_pruned", c.items_pruned);
  tr->Count("corpus.items_aborted", c.items_aborted);
  tr->Count("corpus.dispatches", c.dispatches);
  tr->Count("corpus.scheduler_ns", static_cast<double>(c.elapsed_ns));
  tr->Count("core.query_wall_ns", static_cast<double>(wall_ns));
  tr->Count("core.query_cpu_ns", static_cast<double>(cpu_ns));
  tr->Count("exec.mappings_pruned", r.report.mappings_pruned);
  tr->Count("exec.result_cache_hits", r.report.result_cache_hits);
  tr->Count("exec.result_cache_misses", r.report.result_cache_misses);
  if (!r.answers.empty() && r.answers[0].ok()) {
    std::unordered_set<std::string> docs;
    for (const auto& a : r.answers[0]->answers) docs.insert(a.document);
    tr->Count("corpus.useful_documents", static_cast<double>(docs.size()));
  }
  if (r.shard_reports.size() >= 2) {
    double max_items = 0.0;
    double sum_items = 0.0;
    for (const auto& s : r.shard_reports) {
      max_items = std::max<double>(max_items, s.items_evaluated);
      sum_items += s.items_evaluated;
    }
    if (sum_items > 0) {
      tr->Count("shard.imbalance_sum",
                max_items / (sum_items / r.shard_reports.size()));
      tr->Count("shard.sharded_queries", 1);
    }
  }
}

/// One corpus query. Untraced it is QueryCorpus; traced it is the call
/// QueryCorpus wraps, RunCorpusBatch of one twig, whose reports are
/// counted.
uxm::Result<uxm::CorpusQueryResult> Query(
    const uxm::UncertainMatchingSystem& sys, const std::string& twig,
    const std::vector<std::string>& documents, Tracer* tr) {
  uxm::CorpusQueryOptions o;
  o.top_k = kTopK;
  o.documents = documents;
  if (tr == nullptr) return sys.QueryCorpus(twig, o);
  Tracer::Scope span(tr, "core.query");
  const auto t0 = Clock::now();
  const int64_t c0 = ThreadCpuNs();
  auto resp = sys.RunCorpusBatch({twig}, o);
  const int64_t cpu = ThreadCpuNs() - c0;
  const int64_t wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0)
                           .count();
  if (!resp.ok()) return resp.status();
  CountReport(tr, *resp, wall, cpu);
  return std::move(resp->answers[0]);
}

/// Checks one query outcome: OK and exact.
bool CheckAnswer(const uxm::Result<uxm::CorpusQueryResult>& r,
                 const std::string& twig, Tally* t) {
  ++t->attempted;
  if (!r.ok()) {
    t->Fail("query " + twig + ": " + r.status().ToString());
    return false;
  }
  if (!r->exact) {
    t->Fail("query " + twig + ": inexact answer from an unbudgeted run");
    return false;
  }
  return true;
}

struct BringUpResult {
  bool traced = false;
  double setup_s = 0.0;
  double cold_start_ms = 0.0;
  std::vector<double> write_us;
  std::vector<double> write_cpu_us;
  std::vector<uxm::Result<uxm::CorpusQueryResult>> first;
};

/// From nothing to the first answers: prepare every pair, ingest the
/// initial documents, ask the first queries. False if preparing failed.
bool BringUp(const Inputs& in, Tracer* tr, Served* out, BringUpResult* r,
             Tally* tally) {
  Reset(out);
  if (tr != nullptr) tr->Count("load.bringups", 1);
  Tracer::Scope span(tr, "load.bringup");
  const auto t0 = Clock::now();
  out->system = std::make_unique<uxm::UncertainMatchingSystem>(MeasuredOptions());
  for (const PairInput& p : in.pairs) {
    Tracer::Scope prep(tr, "core.prepare");
    const uxm::Status st = PreparePair(out->system.get(), p);
    tally->Check(st, "prepare " + p.id);
    if (!st.ok()) return false;
  }
  for (const DocInput& d : in.initial_docs) {
    const auto tw = Clock::now();
    const int64_t cw = ThreadCpuNs();
    const uxm::Status st = Ingest(out, in, d, tr);
    r->write_cpu_us.push_back(static_cast<double>(ThreadCpuNs() - cw) / 1e3);
    r->write_us.push_back(Us(Clock::now() - tw));
    tally->Check(st, "ingest " + d.name);
  }
  r->setup_s = Seconds(Clock::now() - t0);
  for (const FirstQuery& fq : in.first_queries) {
    auto res = Query(*out->system, fq.twig, fq.documents, tr);
    CheckAnswer(res, fq.twig, tally);
    r->first.push_back(std::move(res));
  }
  r->cold_start_ms = Seconds(Clock::now() - t0) * 1e3;
  return true;
}

struct RestorePass {
  bool traced = false;
  double ms = 0.0;
  std::vector<double> query_us;
  double query_cpu_ns = 0.0;
};

/// Restores the measured state from a snapshot into fresh systems and
/// asks the first queries again; the answers must be bit-identical.
/// Runs after every bring-up, so the passes spread over the run. A
/// pass's restore time is the LoadSnapshot call; its first queries are
/// timed as queries.
void RestorePasses(const Inputs& in, const Served& measured,
                   const BringUpResult& prepared, const RunConfig& cfg,
                   const Sinks& sinks, Tally* tally,
                   std::vector<RestorePass>* passes) {
  EndToEnd* e = sinks.untraced;
  const std::string path = cfg.tmpdir + "/restore-" +
                           std::to_string(::getpid()) + ".uxmsnap";
  const uxm::Status saved = measured.system->SaveSnapshot(path);
  tally->Check(saved, "save snapshot");
  if (!saved.ok()) return;
  const auto begin = Clock::now();
  for (int rep = 0; rep < kMaxRestorePasses; ++rep) {
    if (rep >= kMinRestorePasses &&
        Seconds(Clock::now() - begin) > kRestoreBudgetS) {
      break;
    }
    std::vector<uxm::Result<uxm::CorpusQueryResult>> answers;
    auto sys = std::make_unique<uxm::UncertainMatchingSystem>(MeasuredOptions());
    {
      RestorePass pass;
      pass.traced = sinks.Traced(rep);
      Tracer* tr = sinks.For(pass.traced);
      Tracer::Scope span(tr, "load.restore");
      const auto t0 = Clock::now();
      uxm::Status st;
      {
        Tracer::Scope load(tr, "core.load_snapshot");
        st = sys->LoadSnapshot(path);
      }
      pass.ms = Seconds(Clock::now() - t0) * 1e3;
      tally->Check(st, "load snapshot");
      if (!st.ok()) break;
      for (const FirstQuery& fq : in.first_queries) {
        const auto tq = Clock::now();
        const int64_t cq = ProcessCpuNs();
        answers.push_back(Query(*sys, fq.twig, fq.documents, tr));
        pass.query_cpu_ns += static_cast<double>(ProcessCpuNs() - cq);
        pass.query_us.push_back(Us(Clock::now() - tq));
      }
      passes->push_back(std::move(pass));
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      const std::string& twig = in.first_queries[i].twig;
      if (!CheckAnswer(answers[i], twig, tally) || !prepared.first[i].ok()) {
        continue;
      }
      ++e->oracle_checked;
      if (!SameAnswers(*answers[i], *prepared.first[i])) {
        ++e->oracle_mismatches;
        tally->Fail("restored answer differs from the prepared one: " + twig);
      }
    }
  }
  std::remove(path.c_str());
}

/// Records every restore pass of one half; `queries` adds their
/// first-query latencies to the query samples. The restore time is
/// reported as the mean over the passes, not a median or the faster
/// half: on a shared host single-threaded speed switches between two
/// levels ~40% apart for seconds at a time, and an order statistic of
/// such samples jumps between the levels from run to run while the mean
/// moves with the share of passes at each.
void RecordRestores(const std::vector<RestorePass>& passes, bool traced,
                    bool queries, EndToEnd* e) {
  size_t kept = 0;
  for (const RestorePass& p : passes) {
    if (p.traced != traced) continue;
    ++kept;
    e->restore_ms.push_back(p.ms);
    if (queries) {
      e->query_us.insert(e->query_us.end(), p.query_us.begin(), p.query_us.end());
      e->query_cpu_ns += p.query_cpu_ns;
      e->query_cpu_queries += p.query_us.size();
    }
  }
  e->notes.push_back("restore: every pass kept (" + std::to_string(kept) + ")");
}

/// Records every bring-up of one half; `writes` adds their set-up
/// ingests to the write samples. Each set-up ingest burst lasts about a
/// tenth of a second, and single-thread speed on a shared host swings
/// by up to 2x within a second: only the samples of every bring-up,
/// spread over the run, average that out.
void RecordBringUps(const std::vector<BringUpResult>& ups, bool traced,
                    bool writes, EndToEnd* e) {
  size_t kept = 0;
  for (const BringUpResult& r : ups) {
    if (r.traced != traced) continue;
    ++kept;
    e->setup_s.push_back(r.setup_s);
    e->cold_start_ms.push_back(r.cold_start_ms);
    if (writes) {
      e->write_us.insert(e->write_us.end(), r.write_us.begin(), r.write_us.end());
      e->write_cpu_us.insert(e->write_cpu_us.end(), r.write_cpu_us.begin(),
                             r.write_cpu_us.end());
    }
  }
  e->notes.push_back("bring-up: every one kept (" + std::to_string(kept) + ")");
}

/// Re-asks every sample against a fresh system with the result cache
/// off, one corpus shard and the exhaustive (unbounded) scheduler; the
/// answers must be equal.
void OracleCheck(const Inputs& in, const Served& measured,
                 const std::vector<const DocInput*>& docs,
                 const std::vector<std::string>& window_names,
                 const std::vector<Sampled>& samples, EndToEnd* e,
                 Tally* tally) {
  uxm::SystemOptions o = MeasuredOptions();
  o.cache.enable_result_cache = false;
  o.corpus_shards = 1;
  Served oracle;
  oracle.system = std::make_unique<uxm::UncertainMatchingSystem>(o);
  for (const PairInput& p : in.pairs) {
    auto pair = measured.system->prepared_pair(p.source.get(), p.target.get());
    if (pair == nullptr) {
      tally->Fail("oracle: pair " + p.id + " is not registered");
      return;
    }
    const uxm::Status st = oracle.system->PrepareFromMatching(pair->matching);
    if (!st.ok()) {
      tally->Fail("oracle: prepare " + p.id + ": " + st.ToString());
      return;
    }
  }
  for (const DocInput* d : docs) {
    const uxm::Status st = Ingest(&oracle, in, *d, nullptr);
    if (!st.ok()) {
      tally->Fail("oracle: ingest " + d->name + ": " + st.ToString());
      return;
    }
  }
  for (const Sampled& s : samples) {
    uxm::CorpusQueryOptions q;
    q.top_k = kTopK;
    q.bounded = false;
    q.documents = s.documents;
    if (s.window_start >= 0) {
      const auto first = window_names.begin() + s.window_start;
      q.documents.assign(first, first + kWindowDocuments);
    }
    auto r = oracle.system->QueryCorpus(s.twig, q);
    ++e->oracle_checked;
    if (!r.ok() || !SameAnswers(*r, s.answer)) {
      ++e->oracle_mismatches;
      tally->Fail("oracle mismatch: " + s.twig +
                  (r.ok() ? "" : " (" + r.status().ToString() + ")"));
    }
  }
}

/// Cumulative cache counters of a system, summed over its pairs.
struct CacheCounters {
  uxm::ResultCacheStats result;
  uxm::BoundCacheStats bound;
  uxm::EmbeddingCacheStats embedding;
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
};

CacheCounters ReadCaches(const Inputs& in, const Served& s) {
  CacheCounters c;
  c.result = s.system->result_cache_stats();
  c.bound = s.system->bound_cache_stats();
  c.embedding = s.system->embedding_cache_stats();
  for (const PairInput& p : in.pairs) {
    auto pair = s.system->prepared_pair(p.source.get(), p.target.get());
    if (pair == nullptr) continue;
    const uxm::QueryCompilerStats st = pair->compiler->Stats();
    c.compile_hits += st.hits;
    c.compile_misses += st.misses;
  }
  return c;
}

void RecordCacheRatios(const CacheCounters& a, const CacheCounters& b,
                       EndToEnd* e) {
  auto ratio = [&](const char* name, double hits, double misses) {
    e->ratios[name] = {hits, hits + misses};
  };
  ratio("cache.result_hit_ratio",
        static_cast<double>(b.result.hits - a.result.hits),
        static_cast<double>(b.result.misses - a.result.misses));
  ratio("cache.bound_hit_ratio", static_cast<double>(b.bound.hits - a.bound.hits),
        static_cast<double>(b.bound.misses - a.bound.misses));
  ratio("cache.embedding_hit_ratio",
        static_cast<double>(b.embedding.hits - a.embedding.hits),
        static_cast<double>(b.embedding.misses - a.embedding.misses));
  ratio("plan.compile_hit_ratio",
        static_cast<double>(b.compile_hits - a.compile_hits),
        static_cast<double>(b.compile_misses - a.compile_misses));
  e->result_evictions =
      static_cast<double>(b.result.evictions - a.result.evictions);
}

/// One timed operation of a concurrent phase: when it started (seconds
/// into the phase; for a write, when it was due), its latency, and
/// whether it ran traced.
struct Timed {
  double at_s = 0.0;
  double us = 0.0;
  bool traced = false;
  double cpu_us = 0.0;  ///< writes: the writer thread's CPU time
};

/// Aggregate CPU time counters of /proc/stat (empty where unavailable).
std::vector<uint64_t> ReadCpuTimes() {
  std::vector<uint64_t> v;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    char cpu[8];
    unsigned long long x;
    if (std::fscanf(f, "%7s", cpu) == 1) {
      while (v.size() < 8 && std::fscanf(f, "%llu", &x) == 1) v.push_back(x);
    }
    std::fclose(f);
  }
  return v;
}

/// The share of CPU time the hypervisor gave to other guests (steal)
/// between two readings; -1 if unknown.
double StealShare(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  if (a.size() < 8 || b.size() < 8) return -1.0;
  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? static_cast<double>(b[7] - a[7]) / total : -1.0;
}

/// Records one half of a concurrent phase. The CPU per query is the
/// process CPU of every window of this half (the whole phase in an
/// untraced run; `window_cpu`: process CPU at each window boundary) less
/// the writes' CPU, over every query of this half. The latency lines are
/// taken over the queries and writes that started in the quietest
/// quarter of the one-second windows, ranked by median query latency:
/// on a shared host, steal time swings between 5% and 25% within a run
/// and moves whole-phase latency by 2x; the quietest windows move far
/// less. The whole-phase latencies are kept for the report.
void RecordPhase(const std::vector<Timed>& queries,
                 const std::vector<Timed>& writes,
                 const std::vector<int64_t>& window_cpu, double phase_s,
                 const Sinks& sinks, bool traced, EndToEnd* e) {
  const int n = std::max(1, static_cast<int>(window_cpu.size()) - 1);
  auto window = [&](double at) {
    return static_cast<size_t>(std::min(n - 1, static_cast<int>(at / kWindowS)));
  };
  std::vector<std::vector<double>> per(static_cast<size_t>(n));
  for (const Timed& q : queries) {
    if (q.traced == traced) per[window(q.at_s)].push_back(q.us);
  }
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < per.size(); ++i) {
    if (!per[i].empty()) ranked.push_back({Median(per[i]), i});
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t keep =
      std::min(ranked.size(), std::max<size_t>(1, (ranked.size() + 3) / 4));
  std::vector<char> kept(per.size(), 0);
  for (size_t j = 0; j < keep; ++j) kept[ranked[j].second] = 1;
  e->windows_kept = keep;
  e->windows_total = ranked.size();
  e->query_seconds = static_cast<double>(keep) * kWindowS;
  e->phase_seconds = phase_s;
  for (const Timed& q : queries) {
    if (q.traced != traced) continue;
    e->phase_query_us.push_back(q.us);
    ++e->query_cpu_queries;
    if (kept[window(q.at_s)]) e->query_us.push_back(q.us);
  }
  for (size_t i = 0; i + 1 < window_cpu.size(); ++i) {
    if (sinks.Traced(static_cast<int64_t>(i)) == traced) {
      e->query_cpu_ns += static_cast<double>(window_cpu[i + 1] - window_cpu[i]);
    }
  }
  for (const Timed& w : writes) {
    if (w.traced != traced) continue;
    e->query_cpu_ns -= w.cpu_us * 1e3;
    e->write_cpu_us.push_back(w.cpu_us);
    e->phase_write_us.push_back(w.us);
    if (kept[window(w.at_s)]) e->write_us.push_back(w.us);
  }
}

/// Records both halves of a run: the bring-ups, restores and cache
/// ratios of each mode into its own sink.
void RecordHalves(const Sinks& sinks, const std::vector<BringUpResult>& ups,
                  bool writes, const std::vector<RestorePass>& restores,
                  bool restore_queries) {
  for (bool traced : {false, true}) {
    EndToEnd* e = sinks.Into(traced);
    if (e == nullptr) continue;
    RecordBringUps(ups, traced, writes, e);
    RecordRestores(restores, traced, restore_queries, e);
  }
}

/// The peak so far, for both halves: taken at the end of the timed
/// phase, so the oracle's system is not in it.
void RecordPeakRss(const Sinks& sinks) {
  const double mb = PeakRssMb();
  for (bool traced : {false, true}) {
    if (EndToEnd* e = sinks.Into(traced)) e->peak_rss_mb = mb;
  }
}

void ColdStart(const Inputs& in, const RunConfig& cfg, const Sinks& sinks,
               Served* measured, Tally* tally) {
  EndToEnd* e = sinks.untraced;
  std::vector<BringUpResult> passes;
  std::vector<RestorePass> restores;
  const auto start = Clock::now();
  double last_s = 0.0;
  // Passes until the next one would end past --seconds (at least
  // min_passes).
  while (static_cast<int>(passes.size()) < cfg.min_passes ||
         Seconds(Clock::now() - start) + last_s <= cfg.seconds) {
    const auto t0 = Clock::now();
    BringUpResult r;
    r.traced = sinks.Traced(static_cast<int64_t>(passes.size()));
    if (!BringUp(in, sinks.For(r.traced), measured, &r, tally)) return;
    RestorePasses(in, *measured, r, cfg, sinks, tally, &restores);
    last_s = Seconds(Clock::now() - t0);
    passes.push_back(std::move(r));
  }
  RecordHalves(sinks, passes, /*writes=*/true, restores, /*restore_queries=*/true);
  const BringUpResult& last = passes.back();
  // The caches of a freshly brought-up system see only first answers.
  const CacheCounters caches = ReadCaches(in, *measured);
  for (bool traced : {false, true}) {
    if (EndToEnd* s = sinks.Into(traced)) {
      RecordCacheRatios(CacheCounters{}, caches, s);
      s->query_seconds = Sum(s->query_us) / 1e6;
    }
  }

  std::vector<Sampled> samples;
  for (size_t i = 0; i < in.first_queries.size(); ++i) {
    if (!last.first[i].ok()) continue;
    samples.push_back({in.first_queries[i].twig, in.first_queries[i].documents,
                       -1, *last.first[i]});
  }
  RecordPeakRss(sinks);
  std::vector<const DocInput*> docs;
  for (const DocInput& d : in.initial_docs) docs.push_back(&d);
  OracleCheck(in, *measured, docs, {}, samples, e, tally);
}

/// Reservoir of answers for the oracle.
class Reservoir {
 public:
  explicit Reservoir(uint64_t seed) : rng_(seed) {}
  bool Want() {
    ++seen_;
    if (kept_.size() < kOracleSamplesPerClient) {
      slot_ = kept_.size();
      kept_.emplace_back();
      return true;
    }
    const uint64_t j = rng_.Uniform(seen_);
    if (j >= kOracleSamplesPerClient) return false;
    slot_ = static_cast<size_t>(j);
    return true;
  }
  Sampled& slot() { return kept_[slot_]; }
  std::vector<Sampled>& kept() { return kept_; }

 private:
  uxm::Rng rng_;
  uint64_t seen_ = 0;
  size_t slot_ = 0;
  std::vector<Sampled> kept_;
};

void CorpusWorkload(WorkloadId w, const Inputs& in, const RunConfig& cfg,
                    const Sinks& sinks, Served* measured, Tally* tally) {
  EndToEnd* e = sinks.untraced;
  std::vector<BringUpResult> ups;
  std::vector<RestorePass> restores;
  auto bring_up = [&](int rep, Served* into) {
    BringUpResult r;
    r.traced = sinks.Traced(rep);
    if (!BringUp(in, sinks.For(r.traced), into, &r, tally)) return false;
    RestorePasses(in, *into, r, cfg, sinks, tally, &restores);
    ups.push_back(std::move(r));
    return true;
  };
  // Half the bring-ups run before the timed phase, the last of them
  // into the measured system, and half after it into a spare one, so
  // the set-up figures sample the host at both ends of the run.
  const int ahead = (cfg.setup_reps + 1) / 2;
  for (int rep = 0; rep < ahead; ++rep) {
    if (!bring_up(rep, measured)) return;
  }
  const std::vector<uxm::Result<uxm::CorpusQueryResult>> first = ups.back().first;

  const uxm::UncertainMatchingSystem& sys = *measured->system;
  const bool cold = w == WorkloadId::kTopkCold;
  // Warm-up: thread pool, arenas and (for the hot mix) the caches.
  for (int round = 0; round < (cold ? 1 : 2); ++round) {
    for (const std::string& t : cold ? in.warmup_twigs : in.hot_twigs) {
      CheckAnswer(sys.QueryCorpus(t, uxm::CorpusQueryOptions{}), t, tally);
    }
  }
  const CacheCounters before = ReadCaches(in, *measured);

  // ingest_mix: the window's names in write order; seq counts writes
  // twice (odd while one is in progress).
  std::vector<std::string> names;
  for (const DocInput& d : in.initial_docs) names.push_back(d.name);
  for (const DocInput& d : in.writer_docs) names.push_back(d.name);
  std::atomic<int64_t> seq{0};
  std::atomic<size_t> cold_cursor{0};
  std::atomic<bool> cold_exhausted{false};
  size_t writes_done = 0;
  std::vector<Timed> writes;
  std::vector<Timed> lateness;
  Tally writer_tally;

  const std::vector<uint64_t> cpu_before = ReadCpuTimes();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
  // Traced runs alternate untraced and traced one-second windows.
  auto traced_at = [&](Clock::time_point t) {
    return sinks.Traced(static_cast<int64_t>(Seconds(t - start) / kWindowS));
  };
  // The write seq each client read before its latest finished query.
  // A query that starts after a removal can no longer reach the removed
  // document, so the writer frees a document once every client has
  // finished such a query; until then in-flight queries may still hold
  // it.
  std::vector<std::atomic<int64_t>> done_from(kClients);
  for (auto& d : done_from) d.store(-1);
  std::deque<std::pair<int64_t, std::unique_ptr<uxm::Document>>> removed;
  std::vector<std::vector<Timed>> latencies(kClients);
  std::vector<Tally> tallies(kClients);
  std::vector<Reservoir> reservoirs;
  for (int c = 0; c < kClients; ++c) {
    reservoirs.emplace_back(cfg.seed * 31 + static_cast<uint64_t>(c));
  }
  auto client = [&](int c) {
    const std::vector<uint32_t>& mix = in.client_hot_sequence[static_cast<size_t>(c)];
    for (size_t i = 0; Clock::now() < end; ++i) {
      const std::string* twig;
      if (cold) {
        const size_t idx = cold_cursor.fetch_add(1);
        if (idx >= in.cold_twigs.size()) {
          cold_exhausted = true;
          break;
        }
        twig = &in.cold_twigs[idx];
      } else {
        twig = &in.hot_twigs[mix[i % mix.size()]];
      }
      const int64_t s0 = seq.load(std::memory_order_acquire);
      const auto t0 = Clock::now();
      const bool traced = traced_at(t0);
      auto r = Query(sys, *twig, {}, sinks.For(traced));
      latencies[static_cast<size_t>(c)].push_back(
          {Seconds(t0 - start), Us(Clock::now() - t0), traced});
      done_from[static_cast<size_t>(c)].store(s0, std::memory_order_release);
      const int64_t s1 = seq.load(std::memory_order_acquire);
      if (!CheckAnswer(r, *twig, &tallies[static_cast<size_t>(c)])) continue;
      const bool stable = s0 == s1 && s0 % 2 == 0;
      Reservoir& res = reservoirs[static_cast<size_t>(c)];
      if (stable && res.Want()) {
        Sampled& s = res.slot();
        s.twig = *twig;
        s.documents.clear();
        s.window_start = w == WorkloadId::kIngestMix ? s0 / 2 : -1;
        s.answer = std::move(*r);
      }
    }
  };
  // Process CPU at every window boundary (window_cpu[w] = at the start
  // of window w).
  std::vector<int64_t> window_cpu{ProcessCpuNs()};
  auto sampler = [&] {
    for (int w = 1;; ++w) {
      const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(w * kWindowS));
      if (at > end) break;
      std::this_thread::sleep_until(at);
      window_cpu.push_back(ProcessCpuNs());
    }
  };
  auto writer = [&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWriterRatePerS));
    for (size_t i = 0; i < in.writer_docs.size(); ++i) {
      const auto due = start + period * static_cast<int64_t>(i);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const bool traced = traced_at(due);
      Tracer* tr = sinks.For(traced);
      const double at_s = Seconds(due - start);
      lateness.push_back({at_s, Us(Clock::now() - due), traced});
      const int64_t cw = ThreadCpuNs();
      bool ok = false;
      {
        Tracer::Scope span(tr, "load.write");
        seq.fetch_add(1, std::memory_order_acq_rel);
        uxm::Status st = Ingest(measured, in, in.writer_docs[i], tr);
        if (st.ok()) {
          Tracer::Scope rm(tr, "core.remove_document");
          st = measured->system->RemoveDocument(names[i]);
        }
        seq.fetch_add(1, std::memory_order_acq_rel);
        writer_tally.Check(st, "write " + in.writer_docs[i].name);
        ok = st.ok();
      }
      writes.push_back({at_s, Us(Clock::now() - due), traced,
                        static_cast<double>(ThreadCpuNs() - cw) / 1e3});
      writes_done = i + 1;
      const auto it = measured->docs.find(names[i]);
      if (ok && it != measured->docs.end()) {
        removed.push_back({seq.load(), std::move(it->second)});
        measured->docs.erase(it);
      }
      int64_t reached = INT64_MAX;
      for (const auto& d : done_from) {
        reached = std::min(reached, d.load(std::memory_order_acquire));
      }
      while (!removed.empty() && removed.front().first <= reached) {
        removed.pop_front();
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    if (w == WorkloadId::kIngestMix) threads.emplace_back(writer);
    threads.emplace_back(sampler);
    for (auto& t : threads) t.join();
  }
  // The last window runs until every thread has stopped, so the queries
  // in flight at the end of the phase are charged in full.
  if (window_cpu.size() == 1) {
    window_cpu.push_back(ProcessCpuNs());
  } else {
    window_cpu.back() = ProcessCpuNs();
  }
  const double phase_s = Seconds(Clock::now() - start);
  const double steal = StealShare(cpu_before, ReadCpuTimes());
  if (cold_exhausted) {
    tally->Fail("topk_cold ran out of distinct twigs before the phase ended");
  }
  const CacheCounters after = ReadCaches(in, *measured);
  std::vector<Timed> queries;
  for (const auto& l : latencies) queries.insert(queries.end(), l.begin(), l.end());
  for (bool traced : {false, true}) {
    EndToEnd* s = sinks.Into(traced);
    if (s == nullptr) continue;
    s->steal_share = steal;
    RecordCacheRatios(before, after, s);
    RecordPhase(queries, writes, window_cpu, phase_s, sinks, traced, s);
    for (const Timed& l : lateness) {
      if (l.traced == traced) s->writer_lateness_us.push_back(l.us);
    }
  }

  std::vector<Sampled> samples;
  for (int c = 0; c < kClients; ++c) {
    tallies[static_cast<size_t>(c)].MergeInto(e);
    for (Sampled& s : reservoirs[static_cast<size_t>(c)].kept()) {
      samples.push_back(std::move(s));
    }
  }
  writer_tally.MergeInto(e);
  RecordPeakRss(sinks);
  {
    Served spare;
    for (int rep = ahead; rep < cfg.setup_reps; ++rep) {
      if (!bring_up(rep, &spare)) return;
    }
  }
  // Set-up ingests are the read-only workloads' writes; ingest_mix times
  // its writes under load instead.
  RecordHalves(sinks, ups, /*writes=*/w != WorkloadId::kIngestMix, restores,
               /*restore_queries=*/false);
  for (size_t i = 0; i < in.first_queries.size(); ++i) {
    if (first[i].ok()) {
      samples.push_back({in.first_queries[i].twig, {}, -1, *first[i]});
    }
  }
  std::vector<const DocInput*> docs;
  for (const DocInput& d : in.initial_docs) docs.push_back(&d);
  for (size_t i = 0; i < writes_done; ++i) docs.push_back(&in.writer_docs[i]);
  OracleCheck(in, *measured, docs, names, samples, e, tally);
}

}  // namespace

uxm::SystemOptions MeasuredOptions() {
  uxm::SystemOptions o;
  o.top_h.h = 100;
  return o;
}

EndToEnd RunWorkload(WorkloadId workload, const Inputs& inputs,
                     const RunConfig& config, Tracer* tracer,
                     Served* measured, EndToEnd* traced) {
  EndToEnd e;
  Tally tally;
  Sinks sinks;
  sinks.untraced = &e;
  sinks.traced = tracer != nullptr ? traced : nullptr;
  sinks.tracer = tracer;
  if (workload == WorkloadId::kColdStart) {
    ColdStart(inputs, config, sinks, measured, &tally);
  } else {
    CorpusWorkload(workload, inputs, config, sinks, measured, &tally);
  }
  tally.MergeInto(&e);
  if (measured->system != nullptr) {
    e.shard_count = measured->system->corpus_shard_count();
    if (sinks.traced != nullptr) sinks.traced->shard_count = e.shard_count;
  }
  return e;
}

}  // namespace uxmbench

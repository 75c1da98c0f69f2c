// uxmbench: the end-to-end benchmark driver. One invocation runs one
// workload from a seed, checks its answers against an oracle, prints a
// human-readable report and, as its last line, one JSON object:
//
//   uxmbench --workload <cold_start|topk_hot|topk_cold|ingest_mix>
//            --seed <n> --seconds <s> --trace <0|1> --tmpdir <dir>
//            [--commit <id>] [--source <digest>] [--out <file>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// with every other unit of work traced (spans around every public call),
// replays a sample of its requests through each layer, and reports the
// per-layer metrics plus the tracing overhead (traced minus untraced).
// See README.md beside this directory's build file.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace uxmbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string tmpdir = ".";
  std::string commit = "unknown";
  std::string source = "unknown";
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--tmpdir") {
      a->tmpdir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--source") {
      a->source = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// One reported metric: value, unit, how many samples it summarises and
/// how (median, p99, ratio with its base, ...).
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string how;
  /// Reported and recorded but not in the result line: its run-to-run
  /// spread on a shared host exceeds any bound BENCHMARK.json may set.
  bool info = false;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void AddMedian(Metrics* m, const std::string& name, const std::string& unit,
               const std::vector<double>& v, bool info = false) {
  m->push_back({name, {Median(v), unit, v.size(), "median", info}});
}

void AddTail(Metrics* m, const std::string& name, const std::string& unit,
             const std::vector<double>& v, bool info = false) {
  const Tail t = TailPercentile(v);
  char how[32];
  std::snprintf(how, sizeof(how), "p%.4g", t.percentile);
  m->push_back({name, {t.value, unit, v.size(), how, info}});
}

Metrics EndToEndMetrics(const EndToEnd& e) {
  Metrics m;
  AddMedian(&m, "setup_s", "s", e.setup_s);
  AddMedian(&m, "cold_start_ms", "ms", e.cold_start_ms);
  m.push_back({"restore_ms",
               {e.restore_ms.empty() ? 0.0 : Sum(e.restore_ms) / e.restore_ms.size(),
                "ms", e.restore_ms.size(), "mean"}});
  m.push_back({"query_cpu_us",
               {e.query_cpu_queries > 0 ? e.query_cpu_ns / 1e3 / e.query_cpu_queries : 0.0,
                "us", e.query_cpu_queries, "process CPU per query"}});
  const size_t writes = e.write_cpu_us.size();
  m.push_back({"write_cpu_us",
               {writes > 0 ? Sum(e.write_cpu_us) / writes : 0.0, "us", writes,
                "writer-thread CPU per write, mean"}});
  m.push_back({"peak_rss_mb",
               {e.peak_rss_mb, "MB", 1, "getrusage maxrss at the end of the timed phase"}});
  AddMedian(&m, "write_cpu_p50_us", "us", e.write_cpu_us, /*info=*/true);
  AddMedian(&m, "write_p50_us", "us", e.write_us, /*info=*/true);
  AddTail(&m, "write_p99_us", "us", e.write_us, /*info=*/true);
  AddMedian(&m, "query_p50_us", "us", e.query_us, /*info=*/true);
  AddTail(&m, "query_p99_us", "us", e.query_us, /*info=*/true);
  m.push_back({"queries_per_s",
               {e.query_seconds > 0 ? e.query_us.size() / e.query_seconds : 0.0,
                "1/s", e.query_us.size(), "count over " + Fmt(e.query_seconds) + " s",
                /*info=*/true}});
  return m;
}

double Get(const Metrics& m, const std::string& name) {
  for (const auto& [n, v] : m) {
    if (n == name) return v.value;
  }
  return 0.0;
}

Metrics LayerMetrics(const Tracer& tr, const EndToEnd& t,
                     const Metrics& untraced, const Metrics& traced) {
  const auto spans = tr.Aggregate();
  const auto counts = tr.counters();
  auto count = [&](const std::string& n) {
    const auto it = counts.find(n);
    return it == counts.end() ? 0.0 : it->second;
  };
  auto span = [&](const std::string& n) {
    const auto it = spans.find(n);
    return it == spans.end() ? SpanStats{} : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  Metrics m;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 size_t n, const std::string& how) {
    m.push_back({name, {v, unit, n, how}});
  };
  // Sum of one span name over the replayed pairs: one bring-up's worth.
  auto total_ms = [&](const std::string& name, const std::string& metric) {
    const SpanStats s = span(name);
    add(metric, s.total_us / 1e3, "ms", s.count, "sum over pairs");
  };
  auto median_us = [&](const std::string& name, const std::string& metric) {
    const SpanStats s = span(name);
    add(metric, Median(s.durations_us), "us", s.count, "median");
  };
  auto hit_ratio = [&](const std::string& name) {
    const auto it = t.ratios.find(name);
    const auto [hits, base] =
        it == t.ratios.end() ? std::pair<double, double>{0, 0} : it->second;
    add(name, ratio(hits, base), "ratio", static_cast<size_t>(base),
        Fmt(hits) + " hits / " + Fmt(base) + " lookups");
  };
  const double queries = count("corpus.queries");
  auto per_query = [&](const std::string& counter, const std::string& metric) {
    add(metric, ratio(count(counter), queries), "count",
        static_cast<size_t>(queries),
        Fmt(count(counter)) + " / " + Fmt(queries) + " queries");
  };

  total_ms("matching.match", "matching.match_ms");
  add("matching.correspondences", count("matching.correspondences"), "count",
      span("matching.match").count, "sum over pairs");
  total_ms("mapping.top_h", "mapping.top_h_ms");
  total_ms("blocktree.build", "blocktree.build_ms");
  add("blocktree.blocks", count("blocktree.blocks"), "count",
      span("blocktree.build").count, "sum over pairs");
  total_ms("plan.pair_build", "plan.pair_build_ms");
  median_us("plan.compile", "plan.compile_us");
  hit_ratio("plan.compile_hit_ratio");
  median_us("plan.execute", "plan.execute_us");
  const double evaluated = count("corpus.items_evaluated");
  add("plan.mappings_pruned_per_item", ratio(count("exec.mappings_pruned"), evaluated),
      "count", static_cast<size_t>(evaluated),
      Fmt(count("exec.mappings_pruned")) + " / " + Fmt(evaluated) + " evaluated items");
  median_us("query.kernel", "query.kernel_us");
  median_us("query.annotate", "query.annotate_us");
  median_us("xml.parse", "xml.parse_us");
  hit_ratio("cache.result_hit_ratio");
  median_us("cache.result_hit", "cache.result_hit_us");
  add("cache.result_evictions", t.result_evictions, "count", 1, "timed phase");
  hit_ratio("cache.bound_hit_ratio");
  hit_ratio("cache.embedding_hit_ratio");
  const SpanStats batch = span("exec.batch_run");
  const double batch_items = ratio(count("exec.batch_items"), count("exec.batch_runs"));
  add("exec.batch_item_us", ratio(Median(batch.durations_us), batch_items), "us",
      batch.count, "median run / " + Fmt(batch_items) + " items");
  add("exec.thread_imbalance", ratio(count("exec.imbalance_sum"), count("exec.batch_runs")),
      "ratio", static_cast<size_t>(count("exec.batch_runs")),
      "max / mean items per thread");
  per_query("corpus.items_evaluated", "corpus.items_evaluated_per_query");
  per_query("corpus.items_pruned", "corpus.items_pruned_per_query");
  per_query("corpus.items_aborted", "corpus.items_aborted_per_query");
  per_query("corpus.dispatches", "corpus.dispatches_per_query");
  add("corpus.useful_ratio", ratio(count("corpus.useful_documents"), evaluated),
      "ratio", static_cast<size_t>(evaluated),
      Fmt(count("corpus.useful_documents")) + " top-k documents / " +
          Fmt(evaluated) + " evaluated items");
  add("corpus.scheduler_us", ratio(count("corpus.scheduler_ns") / 1e3, queries),
      "us", static_cast<size_t>(queries), "scheduler time summed over shards, per query");
  add("shard.count", static_cast<double>(t.shard_count), "count", 1,
      "corpus_shard_count()");
  add("shard.item_imbalance",
      ratio(count("shard.imbalance_sum"), count("shard.sharded_queries")), "ratio",
      static_cast<size_t>(count("shard.sharded_queries")),
      "max / mean evaluated items per shard, over sharded queries");
  add("shard.scheduler_over_wall",
      ratio(count("corpus.scheduler_ns"), count("core.query_wall_ns")), "ratio",
      static_cast<size_t>(queries), "scheduler ns / query wall ns");
  const SpanStats save = span("snapshot.save");
  add("snapshot.save_ms", Median(save.durations_us) / 1e3, "ms", save.count, "median");
  const SpanStats load = span("snapshot.load");
  add("snapshot.load_ms", Median(load.durations_us) / 1e3, "ms", load.count, "median");
  add("snapshot.bytes", count("snapshot.bytes"), "bytes", 1, "file size");
  median_us("core.query", "core.query_us");
  add("core.query_caller_cpu_share",
      ratio(count("core.query_cpu_ns"), count("core.query_wall_ns")), "ratio",
      static_cast<size_t>(queries), "caller thread CPU ns / wall ns");
  median_us("core.add_document", "core.add_document_us");
  median_us("core.remove_document", "core.remove_document_us");
  const SpanStats prep = span("core.prepare");
  const double bringups = count("load.bringups");
  add("core.prepare_ms", ratio(prep.total_us / 1e3, bringups), "ms", prep.count,
      "all pairs of one bring-up, mean of " + Fmt(bringups));
  add("load.writer_lateness_p50_us", Median(t.writer_lateness_us), "us",
      t.writer_lateness_us.size(), "median (0: no open-loop writer)");
  add("load.writer_lateness_max_us",
      t.writer_lateness_us.empty() ? 0.0 : Percentile(t.writer_lateness_us, 100),
      "us", t.writer_lateness_us.size(), "max (0: no open-loop writer)");
  for (const auto& [name, u] : untraced) {
    if (name == "peak_rss_mb") continue;  // one process-wide peak
    const double tv = Get(traced, name);
    add("trace.overhead." + name, ratio(tv - u.value, u.value), "frac",
        u.samples, "traced " + Fmt(tv) + " vs untraced " + Fmt(u.value));
  }
  return m;
}

void PrintMetrics(const char* kind, const Metrics& m) {
  for (const auto& [name, v] : m) {
    std::printf("%-6s %-36s %18.6g %-6s n=%-7zu %s%s\n", kind, name.c_str(),
                v.value, v.unit.c_str(), v.samples, v.how.c_str(),
                v.info ? " (not gated)" : "");
  }
}

void PrintSpans(const Tracer& tr) {
  std::printf("spans  %-30s %8s %14s %14s %12s\n", "name", "count", "total_ms",
              "self_ms", "median_us");
  for (const auto& [name, s] : tr.Aggregate()) {
    std::printf("spans  %-30s %8zu %14.3f %14.3f %12.2f\n", name.c_str(), s.count,
                s.total_us / 1e3, s.self_us / 1e3, Median(s.durations_us));
  }
}

/// The metrics as a JSON object: the gated ones only for the result
/// line, every one with its sample count for the record.
std::string MetricsJson(const Metrics& m, bool record) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (v.info && !record) continue;
    out += (out.size() > 1 ? ", " : "") + Quote(name) + ": {\"value\": " +
           Fmt(v.value) + ", \"unit\": " + Quote(v.unit);
    if (record) {
      out += ", \"samples\": " + std::to_string(v.samples) + ", \"how\": " +
             Quote(v.how) + ", \"gated\": " + (v.info ? "false" : "true");
    }
    out += "}";
  }
  return out + "}";
}

int Run(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "uxmbench: refusing to time a build without NDEBUG (debug builds "
               "re-evaluate every pruned corpus item)\n");
  return 2;
#endif
#ifdef UXM_FAULT_INJECTION
  std::fprintf(stderr,
               "uxmbench: refusing to time a build with UXM_FAULT_INJECTION "
               "(failpoints add work)\n");
  return 2;
#endif
  WorkloadId workload;
  if (!ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "uxmbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Inputs inputs = MakeInputs(workload, args.seed, args.seconds);
  std::fprintf(stderr, "uxmbench: inputs generated in %.2f s\n",
               std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count());

  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.tmpdir = args.tmpdir;
  cfg.seconds = args.seconds;
  EndToEnd e2e;
  Metrics reported;
  std::string kind = "e2e";
  Tracer tracer;
  if (args.trace == 0) {
    Served measured;
    e2e = RunWorkload(workload, inputs, cfg, nullptr, &measured);
    reported = EndToEndMetrics(e2e);
  } else {
    // Untraced and traced units interleave (see RunWorkload): two
    // bring-ups of each kind (at least one cold pass of each kind),
    // alternating windows.
    cfg.min_passes = 2;
    EndToEnd traced;
    Served measured;
    e2e = RunWorkload(workload, inputs, cfg, &tracer, &measured, &traced);
    const Metrics u = EndToEndMetrics(e2e);
    const Metrics t = EndToEndMetrics(traced);
    ReplayLayers(workload, inputs, cfg, &measured, &tracer);
    e2e.failed += static_cast<int64_t>(tracer.counters()["replay.failures"]);
    PrintMetrics("untr", u);
    PrintMetrics("traced", t);
    PrintSpans(tracer);
    reported = LayerMetrics(tracer, traced, u, t);
    kind = "layer";
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("# uxmbench workload=%s seed=%llu seconds=%s trace=%d nproc=%ld "
              "hardware_concurrency=%u corpus_shards=%zu commit=%s source=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Fmt(args.seconds).c_str(), args.trace, nproc,
              std::thread::hardware_concurrency(), e2e.shard_count,
              args.commit.c_str(), args.source.c_str());
  PrintMetrics(kind.c_str(), reported);
  if (e2e.windows_total > 0) {
    std::printf("phase  quietest %zu of %zu one-second windows kept; whole phase: "
                "query p50 %.6g us, p99 %.6g us, %.6g queries/s over %.4g s; "
                "hypervisor steal %.1f%%\n",
                e2e.windows_kept, e2e.windows_total, Median(e2e.phase_query_us),
                TailPercentile(e2e.phase_query_us).value,
                e2e.phase_query_us.size() / e2e.phase_seconds, e2e.phase_seconds,
                100.0 * e2e.steal_share);
    if (!e2e.phase_write_us.empty()) {
      std::printf("phase  whole phase writes: p50 %.6g us, p99 %.6g us (n=%zu)\n",
                  Median(e2e.phase_write_us), TailPercentile(e2e.phase_write_us).value,
                  e2e.phase_write_us.size());
    }
  }
  for (const std::string& note : e2e.notes) std::printf("note   %s\n", note.c_str());
  for (const auto& [name, r] : e2e.ratios) {
    std::printf("cache  %s %.6g (%.17g / %.17g)\n", name.c_str(),
                r.second > 0 ? r.first / r.second : 0.0, r.first, r.second);
  }
  std::printf("cache  result evictions %.17g\n", e2e.result_evictions);
  if (!e2e.writer_lateness_us.empty()) {
    std::printf("load   writer lateness p50 %.6g us, max %.6g us over %zu writes due\n",
                Median(e2e.writer_lateness_us), Percentile(e2e.writer_lateness_us, 100),
                e2e.writer_lateness_us.size());
  }
  if (e2e.oracle_checked == 0) {
    e2e.errors.push_back("the oracle checked no answers");
    ++e2e.failed;
  }
  const double failed_frac =
      e2e.attempted > 0 ? static_cast<double>(e2e.failed) / e2e.attempted : 1.0;
  std::printf("check  failed_frac %.6g (%lld failed / %lld attempted; oracle %lld "
              "checked, %lld mismatched)\n",
              failed_frac, static_cast<long long>(e2e.failed),
              static_cast<long long>(e2e.attempted),
              static_cast<long long>(e2e.oracle_checked),
              static_cast<long long>(e2e.oracle_mismatches));
  for (const std::string& err : e2e.errors) std::printf("error  %s\n", err.c_str());
  const bool correct = e2e.failed == 0 && e2e.attempted > 0;

  if (!args.out.empty()) {
    if (FILE* f = std::fopen(args.out.c_str(), "w")) {
      std::fprintf(
          f,
          "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
          "\"stamp\": {\"nproc\": %ld, \"hardware_concurrency\": %u, "
          "\"corpus_shards\": %zu, \"commit\": %s, \"source\": %s}, "
          "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
          "\"failed_frac\": %s, \"oracle_checked\": %lld, "
          "\"oracle_mismatches\": %lld, \"metrics\": %s}\n",
          Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
          Fmt(args.seconds).c_str(), args.trace, nproc,
          std::thread::hardware_concurrency(), e2e.shard_count,
          Quote(args.commit).c_str(), Quote(args.source).c_str(),
          correct ? "true" : "false", static_cast<long long>(e2e.attempted),
          static_cast<long long>(e2e.failed), Fmt(failed_frac).c_str(),
          static_cast<long long>(e2e.oracle_checked),
          static_cast<long long>(e2e.oracle_mismatches),
          MetricsJson(reported, true).c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "uxmbench: cannot write %s\n", args.out.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(e2e.attempted),
              static_cast<long long>(e2e.failed), MetricsJson(reported, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace uxmbench

int main(int argc, char** argv) {
  uxmbench::Args args;
  if (!uxmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: uxmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tmpdir <dir>] [--commit <id>] "
                 "[--source <digest>] [--out <file>]\n");
    return 2;
  }
  return uxmbench::Run(args);
}

// The four workloads, driven through UncertainMatchingSystem's public API
// exactly as a user of the library drives it, plus the answer oracle and
// the traced replay of single layers.
#ifndef UXMBENCH_WORKLOADS_H_
#define UXMBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.h"
#include "inputs.h"
#include "trace.h"

namespace uxmbench {

/// The options every measured system is built with: the defaults, except
/// the paper's |M| = 100 possible mappings.
uxm::SystemOptions MeasuredOptions();

/// A brought-up system and the documents it serves, by name. The
/// documents are declared first so they outlive the system's
/// registrations.
struct Served {
  std::unordered_map<std::string, std::unique_ptr<uxm::Document>> docs;
  std::unique_ptr<uxm::UncertainMatchingSystem> system;
};

struct RunConfig {
  double seconds = 10.0;
  int setup_reps = 4;      ///< bring-ups (corpus workloads)
  int min_passes = 3;      ///< cold passes (cold_start)
  uint64_t seed = 1;
  std::string tmpdir;      ///< scratch files (snapshots)
};

/// End-to-end samples of one run, plus what the oracle found.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> cold_start_ms;
  std::vector<double> restore_ms;
  std::vector<double> query_us;
  std::vector<double> write_us;
  std::vector<double> write_cpu_us;  ///< the writing thread's CPU per write
  std::vector<double> writer_lateness_us;
  double query_seconds = 0.0;  ///< wall time the query samples span
  /// Concurrent phases: query_us/write_us hold the samples of the quietest
  /// windows (see RecordPhase); these hold the whole phase.
  std::vector<double> phase_query_us;
  std::vector<double> phase_write_us;
  double phase_seconds = 0.0;
  size_t windows_kept = 0;
  size_t windows_total = 0;
  double steal_share = -1.0;  ///< hypervisor steal over the phase
  /// Process CPU time spent while queries ran and how many queries it
  /// covers: the whole concurrent phase less the writer's CPU (this
  /// half's windows in a traced run), or every restore pass's first
  /// queries (cold_start).
  double query_cpu_ns = 0.0;
  size_t query_cpu_queries = 0;
  /// Peak resident set at the end of the timed phase, before the oracle
  /// builds its own system.
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;           ///< failed ops + oracle mismatches
  int64_t oracle_checked = 0;
  int64_t oracle_mismatches = 0;
  size_t shard_count = 0;
  /// Cache counters over the timed phase: {hits, lookups}.
  std::map<std::string, std::pair<double, double>> ratios;
  double result_evictions = 0.0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<std::string> notes;   ///< how samples were selected
};

/// Runs `workload` once and returns its end-to-end samples (all of them
/// when `tracer` is null). With a tracer, every other unit of work — a
/// bring-up, a restore pass, a one-second window of the concurrent
/// phase — runs with spans and counters around every public call, and
/// its samples go to `*traced` instead. Failures and oracle results are
/// counted in the returned record only. On return `*measured` holds the
/// system the timed phase ran against, for the traced replay.
EndToEnd RunWorkload(WorkloadId workload, const Inputs& inputs,
                     const RunConfig& config, Tracer* tracer,
                     Served* measured, EndToEnd* traced = nullptr);

/// Replays a seeded sample of the workload's requests directly through
/// each layer's public entry point, recording spans and counters.
void ReplayLayers(WorkloadId workload, const Inputs& inputs,
                  const RunConfig& config, Served* measured, Tracer* tracer);

}  // namespace uxmbench

#endif  // UXMBENCH_WORKLOADS_H_

// Seeded input generation. Everything a workload feeds the library —
// schemas, XML document text, twig strings and request sequences — is
// built here before any clock starts; the same seed gives the same
// inputs.
#ifndef UXMBENCH_INPUTS_H_
#define UXMBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "matching/matcher.h"
#include "xml/schema.h"

namespace uxmbench {

enum class WorkloadId { kColdStart, kTopkHot, kTopkCold, kIngestMix };

/// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, WorkloadId* out);

/// One Table II schema pair to prepare.
struct PairInput {
  std::string id;  ///< "D1".."D10"
  uxm::MatcherStrategy strategy = uxm::MatcherStrategy::kContext;
  std::shared_ptr<const uxm::Schema> source;
  std::shared_ptr<const uxm::Schema> target;
};

/// One named document, as XML text, bound to pairs[pair].
struct DocInput {
  std::string name;
  size_t pair = 0;
  std::string xml;
};

/// One corpus query that produces a bring-up's first answer. Empty
/// `documents` = the whole corpus.
struct FirstQuery {
  size_t pair = 0;  ///< the pair whose documents it asks (cold_start)
  std::string twig;
  std::vector<std::string> documents;
};

struct Inputs {
  std::vector<PairInput> pairs;
  std::vector<DocInput> initial_docs;
  std::vector<FirstQuery> first_queries;
  /// Read mix of topk_hot and ingest_mix: the Table III queries, and per
  /// client a Zipf(s = 1) sequence of indices into them.
  std::vector<std::string> hot_twigs;
  std::vector<std::vector<uint32_t>> client_hot_sequence;
  /// topk_cold: distinct twigs, each sent at most once per run, plus a
  /// disjoint set used only to warm the process up.
  std::vector<std::string> cold_twigs;
  std::vector<std::string> warmup_twigs;
  /// ingest_mix: documents the open-loop writer adds, in order.
  std::vector<DocInput> writer_docs;
};

inline constexpr int kClients = 2;
inline constexpr int kTopK = 10;
inline constexpr int kCorpusDocuments = 256;
inline constexpr int kWindowDocuments = 1024;
inline constexpr double kWriterRatePerS = 50.0;

Inputs MakeInputs(WorkloadId workload, uint64_t seed, double seconds);

}  // namespace uxmbench

#endif  // UXMBENCH_INPUTS_H_

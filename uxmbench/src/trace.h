// In-memory spans and counters recorded by the benchmark around its own
// calls into the library's public functions. Nothing inside the library
// is instrumented: a span covers exactly one call (or a group of calls
// the benchmark makes for one request) and nests under whatever span is
// open on the same thread.
#ifndef UXMBENCH_TRACE_H_
#define UXMBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace uxmbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a top-level span.
  uint64_t request = 0;  ///< id of the top-level span it belongs to.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

/// \brief Per-name aggregate of the recorded spans.
struct SpanStats {
  size_t count = 0;
  std::vector<double> durations_us;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one span for its lifetime. A null tracer records nothing,
  /// so untraced code paths run the same statements.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_request_ = 0;
  };

  /// Adds `value` to the named counter.
  void Count(const std::string& name, double value);

  std::vector<Span> spans() const;
  std::map<std::string, double> counters() const;

  /// Aggregates spans by name, with self time.
  std::map<std::string, SpanStats> Aggregate() const;

 private:
  void Record(const Span& span);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace uxmbench

#endif  // UXMBENCH_TRACE_H_

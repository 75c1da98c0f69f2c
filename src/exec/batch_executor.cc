#include "exec/batch_executor.h"

#include <atomic>
#include <exception>
#include <type_traits>
#include <utility>

#include "exec/thread_pool.h"

namespace uxm {

namespace {

/// Per-worker counters. Plan compilation and result caching are shared
/// (the QueryCompiler/ResultCache are internally synchronized); only the
/// tallies stay thread-local so the query hot path takes no extra locks.
struct WorkerScratch {
  int items = 0;
  int compile_hits = 0;
  int result_hits = 0;
  int result_misses = 0;
  int mappings_pruned = 0;
  int aborted = 0;
  int aborted_in_kernel = 0;
};

}  // namespace

/// RAII lease of one pooled arena for one worker slot's claim loop. The
/// arena returns to the pool with its grown capacity intact, so across
/// Runs the fleet of arenas converges on the workload's high-water mark
/// and evaluation scratch stops allocating entirely.
class ScratchLease {
 public:
  explicit ScratchLease(const BatchQueryExecutor* owner)
      : owner_(owner), scratch_(owner->AcquireScratch()) {}
  ~ScratchLease() { owner_->ReleaseScratch(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  MonotonicScratch* get() const { return scratch_.get(); }

 private:
  const BatchQueryExecutor* owner_;
  std::unique_ptr<MonotonicScratch> scratch_;
};

std::unique_ptr<MonotonicScratch> BatchQueryExecutor::AcquireScratch() const {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<MonotonicScratch> scratch =
          std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<MonotonicScratch>();
}

void BatchQueryExecutor::ReleaseScratch(
    std::unique_ptr<MonotonicScratch> scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

BatchQueryExecutor::BatchQueryExecutor(BatchExecutorOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(
          options_.num_threads > 0 ? options_.num_threads
                                   : ThreadPool::DefaultThreadCount())) {}

BatchQueryExecutor::~BatchQueryExecutor() = default;

int BatchQueryExecutor::num_threads() const { return pool_->num_threads(); }

template <typename Answer>
std::vector<Result<Answer>> BatchQueryExecutor::RunItems(
    const std::vector<BatchQueryItem>& batch,
    const std::shared_ptr<const PreparedSchemaPair>& default_pair,
    BatchRunReport* report, const BatchCacheContext* cache,
    const BatchRunControl* control) const {
  constexpr bool kRanked = !std::is_same_v<Answer, PtqResult>;
  const size_t n = batch.size();
  // Every slot is overwritten by the worker that claims its item, so the
  // placeholder is never observed; an empty message keeps the fill free
  // of one heap allocation per item.
  std::vector<Result<Answer>> results(n, Result<Answer>(Status::Internal("")));
  if (report != nullptr) {
    *report = BatchRunReport{};
    report->num_threads = pool_->num_threads();
    report->items_per_thread.assign(
        static_cast<size_t>(pool_->num_threads()), 0);
  }

  ResultCache* result_cache = cache != nullptr ? cache->results : nullptr;
  const uint64_t epoch = cache != nullptr ? cache->epoch : 0;

  // One long-lived claim loop per worker slot (not one task per item):
  // each slot owns its counters for the whole run, and the atomic cursor
  // gives dynamic balancing without any queue contention per item.
  const int slots = pool_->num_threads();
  std::vector<WorkerScratch> scratch(static_cast<size_t>(slots));
  std::atomic<size_t> cursor{0};

  auto run_slot = [&](size_t slot) {
    WorkerScratch& ws = scratch[slot];
    const ScratchLease arena(this);
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const BatchQueryItem& item = batch[i];
      ++ws.items;
      // The whole item is inside the try so any throw — compile, evaluate,
      // even bad_alloc on a result assignment — fails only this slot and
      // never escapes the Result-returning API.
      try {
        const PreparedSchemaPair* pair =
            item.pair != nullptr ? item.pair.get() : default_pair.get();
        if (pair == nullptr) {
          results[i] =
              Status::InvalidArgument("item has no prepared schema pair");
          continue;
        }
        if (item.doc == nullptr) {
          results[i] = Status::InvalidArgument("item has a null document");
          continue;
        }
        DriverRequest request;
        request.pair = pair;
        request.doc = item.doc;
        request.twig = &item.twig;
        request.options = options_.ptq;
        if (item.top_k > 0) request.options.top_k = item.top_k;
        request.use_block_tree = options_.use_block_tree;
        request.scratch = arena.get();
        request.cache = result_cache;
        request.epoch = item.epoch != 0 ? item.epoch : epoch;
        if (control != nullptr) {
          request.upper_bound = item.priority;
          request.cancel_threshold = item.cancel_threshold != nullptr
                                         ? item.cancel_threshold
                                         : control->cancel_threshold;
          request.budget = control->budget;
        }
        DriverCounters counters;
        if constexpr (kRanked) {
          results[i] = ExecutionDriver::ExecuteRanked(request, &counters);
        } else {
          results[i] = ExecutionDriver::Execute(request, &counters);
        }
        ws.compile_hits += counters.compile_hit ? 1 : 0;
        ws.result_hits += counters.result_hit ? 1 : 0;
        ws.result_misses += counters.result_miss ? 1 : 0;
        ws.mappings_pruned += counters.select.skipped;
        ws.aborted += counters.cancelled ? 1 : 0;
        ws.aborted_in_kernel += counters.cancelled_in_kernel ? 1 : 0;
        if constexpr (kRanked) {
          if (control != nullptr && control->on_item_done) {
            control->on_item_done(i, results[i]);
          }
        }
      } catch (const std::exception& e) {
        results[i] = Status::Internal(std::string("evaluation threw: ") +
                                      e.what());
      } catch (...) {
        results[i] = Status::Internal("evaluation threw a non-std exception");
      }
    }
  };

  // ParallelFor(slots) runs each slot's claim loop on its own thread
  // (the calling thread doubles as one of them).
  pool_->ParallelFor(static_cast<size_t>(slots), run_slot);

  if (report != nullptr) {
    report->items_per_thread.clear();
    for (const WorkerScratch& ws : scratch) {
      report->items_per_thread.push_back(ws.items);
      report->query_cache_hits += ws.compile_hits;
      report->result_cache_hits += ws.result_hits;
      report->result_cache_misses += ws.result_misses;
      report->mappings_pruned += ws.mappings_pruned;
      report->items_aborted += ws.aborted;
      report->items_aborted_in_kernel += ws.aborted_in_kernel;
    }
    // Sample compiler stats from the default pair, or — for pair-carried
    // runs like corpus fan-outs — from the first item's pair, so corpus
    // batch reports keep their compiler counters.
    const PreparedSchemaPair* report_pair = default_pair.get();
    for (size_t i = 0; report_pair == nullptr && i < n; ++i) {
      report_pair = batch[i].pair.get();
    }
    if (report_pair != nullptr) {
      report->compiler = report_pair->compiler->Stats();
    }
    if (result_cache != nullptr) {
      report->result_cache = result_cache->Stats();
    }
  }
  return results;
}

std::vector<Result<PtqResult>> BatchQueryExecutor::Run(
    const std::vector<BatchQueryItem>& batch,
    const std::shared_ptr<const PreparedSchemaPair>& default_pair,
    BatchRunReport* report, const BatchCacheContext* cache) const {
  return RunItems<PtqResult>(batch, default_pair, report, cache,
                             /*control=*/nullptr);
}

std::vector<Result<std::shared_ptr<const RankedPtqResult>>>
BatchQueryExecutor::RunRanked(
    const std::vector<BatchQueryItem>& batch,
    const std::shared_ptr<const PreparedSchemaPair>& default_pair,
    BatchRunReport* report, const BatchCacheContext* cache,
    const BatchRunControl* control) const {
  return RunItems<std::shared_ptr<const RankedPtqResult>>(
      batch, default_pair, report, cache, control);
}

}  // namespace uxm

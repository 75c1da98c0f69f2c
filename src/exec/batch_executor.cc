#include "exec/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <type_traits>
#include <utility>

#include "exec/thread_pool.h"

namespace uxm {

/// The state one claim run shares between its slots. Only slot 0 (the
/// calling thread) touches `recruited` and `helpers`; each slot writes
/// only its own `tallies` entry, once, when its loop returns.
struct ClaimSlot::RunState {
  const std::function<void(ClaimSlot&)>* loop = nullptr;
  bool recruited = false;
  std::vector<std::future<void>> helpers;
  std::vector<ClaimSlotTally> tallies;
};

ClaimSlot::~ClaimSlot() {
  if (scratch_ != nullptr) executor_->ReleaseScratch(std::move(scratch_));
}

MonotonicScratch* ClaimSlot::Scratch() {
  if (scratch_ == nullptr) scratch_ = executor_->AcquireScratch();
  return scratch_.get();
}

bool ClaimSlot::Recruit(size_t unclaimed) {
  if (index_ != 0 || run_->recruited) return false;
  run_->recruited = true;
  const size_t helpers = std::min(
      static_cast<size_t>(executor_->num_threads() - 1), unclaimed);
  run_->helpers.reserve(helpers);
  for (size_t h = 1; h <= helpers; ++h) {
    RunState* run = run_;
    const BatchQueryExecutor* executor = executor_;
    auto future = executor_->pool_->Submit([run, executor, h] {
      ClaimSlot slot(executor, run, h);
      (*run->loop)(slot);
      run->tallies[h] = slot.tally;
    });
    if (future.valid()) run_->helpers.push_back(std::move(future));
  }
  return true;
}

namespace {

/// Runs one driver call. Any throw — compile, evaluate, even bad_alloc —
/// fails only this request and never escapes the Result-returning API.
template <typename Call>
auto Guarded(Call&& call) -> decltype(call()) {
  try {
    return call();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation threw: ") + e.what());
  } catch (...) {
    return Status::Internal("evaluation threw a non-std exception");
  }
}

}  // namespace

void ClaimSlot::Count(const DriverCounters& c) {
  ++tally.items;
  tally.compile_hits += c.compile_hit ? 1 : 0;
  tally.result_hits += c.result_hit ? 1 : 0;
  tally.result_misses += c.result_miss ? 1 : 0;
  tally.mappings_pruned += c.select.skipped;
  tally.aborted += c.cancelled ? 1 : 0;
  tally.aborted_in_kernel += c.cancelled_in_kernel ? 1 : 0;
}

Result<std::shared_ptr<const RankedPtqResult>> ClaimSlot::ExecuteRanked(
    DriverRequest request, DriverCounters* counters) {
  DriverCounters local;
  DriverCounters& c = counters != nullptr ? *counters : local;
  request.scratch = Scratch();
  auto result =
      Guarded([&] { return ExecutionDriver::ExecuteRanked(request, &c); });
  Count(c);
  return result;
}

Result<PtqResult> ClaimSlot::Execute(DriverRequest request) {
  DriverCounters c;
  request.scratch = Scratch();
  auto result = Guarded([&] { return ExecutionDriver::Execute(request, &c); });
  Count(c);
  return result;
}

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

void BatchQueryExecutor::RunClaimLoop(
    const std::function<void(ClaimSlot&)>& loop,
    BatchRunReport* report) const {
  ClaimSlot::RunState run;
  run.loop = &loop;
  run.tallies.resize(static_cast<size_t>(pool_->num_threads()));
  std::exception_ptr error;
  {
    ClaimSlot caller(this, &run, 0);
    try {
      loop(caller);
    } catch (...) {
      error = std::current_exception();
    }
    run.tallies[0] = caller.tally;
  }
  // Helpers borrow this frame, so every one is waited for even when the
  // caller's loop threw.
  for (std::future<void>& helper : run.helpers) {
    try {
      helper.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  if (report == nullptr) return;
  *report = BatchRunReport{};
  report->num_threads = pool_->num_threads();
  for (const ClaimSlotTally& t : run.tallies) {
    report->items_per_thread.push_back(t.items);
    report->query_cache_hits += t.compile_hits;
    report->result_cache_hits += t.result_hits;
    report->result_cache_misses += t.result_misses;
    report->mappings_pruned += t.mappings_pruned;
    report->items_aborted += t.aborted;
    report->items_aborted_in_kernel += t.aborted_in_kernel;
  }
}

template <typename Answer>
std::vector<Result<Answer>> BatchQueryExecutor::RunItems(
    const std::vector<BatchQueryItem>& batch,
    const std::shared_ptr<const PreparedSchemaPair>& default_pair,
    BatchRunReport* report, const BatchCacheContext* cache) const {
  constexpr bool kRanked = !std::is_same_v<Answer, PtqResult>;
  const size_t n = batch.size();
  // Every slot is overwritten by the worker that claims its item, so the
  // placeholder is never observed; an empty message keeps the fill free
  // of one heap allocation per item.
  std::vector<Result<Answer>> results(n, Result<Answer>(Status::Internal("")));
  ResultCache* result_cache = cache != nullptr ? cache->results : nullptr;
  const uint64_t epoch = cache != nullptr ? cache->epoch : 0;

  std::atomic<size_t> cursor{0};
  RunClaimLoop(
      [&](ClaimSlot& slot) {
        for (;;) {
          const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          slot.Recruit(n - i - 1);
          const BatchQueryItem& item = batch[i];
          const PreparedSchemaPair* pair =
              item.pair != nullptr ? item.pair.get() : default_pair.get();
          if (pair == nullptr || item.doc == nullptr) {
            ++slot.tally.items;
            results[i] = Status::InvalidArgument(
                pair == nullptr ? "item has no prepared schema pair"
                                : "item has a null document");
            continue;
          }
          DriverRequest request;
          request.pair = pair;
          request.doc = item.doc;
          request.twig = &item.twig;
          request.options = options_.ptq;
          if (item.top_k > 0) request.options.top_k = item.top_k;
          request.use_block_tree = options_.use_block_tree;
          request.cache = result_cache;
          request.epoch = item.epoch != 0 ? item.epoch : epoch;
          if constexpr (kRanked) {
            results[i] = slot.ExecuteRanked(request);
          } else {
            results[i] = slot.Execute(request);
          }
        }
      },
      report);

  if (report != nullptr) {
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
  return RunItems<PtqResult>(batch, default_pair, report, cache);
}

std::vector<Result<std::shared_ptr<const RankedPtqResult>>>
BatchQueryExecutor::RunRanked(
    const std::vector<BatchQueryItem>& batch,
    const std::shared_ptr<const PreparedSchemaPair>& default_pair,
    BatchRunReport* report, const BatchCacheContext* cache) const {
  return RunItems<std::shared_ptr<const RankedPtqResult>>(batch, default_pair,
                                                          report, cache);
}

}  // namespace uxm

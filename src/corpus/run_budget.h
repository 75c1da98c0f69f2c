// RunBudget: the shared deadline/evaluation budget of one anytime corpus
// run (CorpusQueryOptions::deadline / max_evaluations).
//
// A budgeted run creates exactly ONE RunBudget and threads a pointer to it
// through every layer that does work on the run's behalf: every claim of
// the bounded scheduler's claim loop polls it (one run at every shard
// count, so the merged certificate is global), ExecutionDriver polls it
// between phases (and charges one evaluation credit before entering a
// kernel), and the flat kernels poll the sticky expiry flag — plus the deadline
// clock itself — at their existing 64-tick cancellation sites, so even a
// single stuck evaluation aborts within one poll interval.
//
// Expiry is STICKY: whichever participant first observes the deadline
// passing (or the evaluation countdown reaching zero) sets the flag, and
// every other participant sees it at its next poll with one relaxed load.
// Unbudgeted runs pass a null RunBudget* everywhere and take the exact
// path untouched — a non-null budget pointer is itself the signal that
// the run is budgeted (and therefore must not populate the ResultCache;
// see DriverRequest::budget).
#ifndef UXM_CORPUS_RUN_BUDGET_H_
#define UXM_CORPUS_RUN_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace uxm {

/// \brief Shared atomic expiry + evaluation countdown of one corpus run.
class RunBudget {
 public:
  using Clock = std::chrono::steady_clock;

  /// `deadline` Clock::time_point::max() means no deadline;
  /// `max_evaluations` <= 0 means no evaluation cap. (Create a RunBudget
  /// only when Limited() — an unlimited budget object works but wastes a
  /// poll per item.)
  RunBudget(Clock::time_point deadline, int64_t max_evaluations)
      : deadline_(deadline),
        unlimited_evaluations_(max_evaluations <= 0),
        remaining_(max_evaluations) {}

  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  /// True when `options`-shaped inputs carry any budget at all — the only
  /// case callers construct a RunBudget; otherwise they pass nullptr and
  /// the run is byte-identical to the unbudgeted exact path.
  static bool Limited(Clock::time_point deadline, int64_t max_evaluations) {
    return deadline != Clock::time_point::max() || max_evaluations > 0;
  }

  /// Cheap poll: has any participant already published expiry? (One
  /// relaxed load; never reads the clock.)
  bool expired() const { return expired_.load(std::memory_order_relaxed); }

  /// Full poll: publishes (and returns) expiry if the deadline has
  /// passed. Schedulers and the driver call this between phases; kernels
  /// read the clock themselves via KernelCancelContext so a stuck
  /// evaluation self-aborts without anyone calling ExpiredNow().
  bool ExpiredNow();

  /// Charges one evaluation credit. Returns false — publishing expiry —
  /// once max_evaluations credits have been granted, or when the budget
  /// has already expired for any reason; the caller must not start its
  /// kernel. Credits bound the number of evaluations STARTED: when the
  /// countdown hits zero mid-run, in-flight evaluations are cancelled by
  /// the expiry flag like a deadline hit. Cache hits, pruned items, and
  /// budget-skipped items consume nothing.
  bool TryConsumeEvaluation();

  Clock::time_point deadline() const { return deadline_; }

  /// The sticky expiry flag, for KernelCancelContext::expired — non-const
  /// because the kernel that first observes the deadline passing sets it.
  std::atomic<bool>* expired_flag() { return &expired_; }

 private:
  const Clock::time_point deadline_;
  const bool unlimited_evaluations_;
  // Evaluation credits left. fetch_sub may drive this arbitrarily
  // negative under contention; only the transition through zero matters,
  // and `before > 0` is true for exactly max_evaluations callers no
  // matter the interleaving (the unlimited case never touches it — see
  // unlimited_evaluations_, a separate flag so an exhausted countdown is
  // never misread as unlimited).
  std::atomic<int64_t> remaining_;
  std::atomic<bool> expired_{false};
};

}  // namespace uxm

#endif  // UXM_CORPUS_RUN_BUDGET_H_

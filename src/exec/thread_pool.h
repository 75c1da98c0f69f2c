// A fixed-size thread pool with a single shared FIFO queue. Deliberately
// minimal: no work stealing, no priorities, no dynamic sizing — the batch
// executor layered on top (exec/batch_executor.h) submits one claim-loop
// task per recruited helper and balances load with an atomic cursor, so
// the pool only needs to run opaque tasks and shut down cleanly. Nothing
// that runs as a pool task may block on other pool tasks: the corpus
// paths run their whole claim loop on the calling thread plus helpers,
// with no coordinator thread of their own.
//
// Exception safety: tasks are wrapped in std::packaged_task, so an
// exception escaping a task is captured into the returned future and
// rethrown at future.get(); worker threads never die from a throwing
// task.
#ifndef UXM_EXEC_THREAD_POOL_H_
#define UXM_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace uxm {

/// \brief Fixed-size FIFO thread pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins all workers (equivalent to Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. If `fn` throws,
  /// the exception is delivered through the future. Returns an invalid
  /// (default-constructed) future if the pool is already shut down.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> Submit(F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return std::future<R>();
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Stops accepting work, runs every already-queued task, joins all
  /// workers. Idempotent; safe to call concurrently with Submit.
  void Shutdown();

  /// The pool's configured width. Stable for the pool's lifetime (it is
  /// not zeroed by Shutdown), so it is safe to read concurrently.
  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  int num_threads_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace uxm

#endif  // UXM_EXEC_THREAD_POOL_H_

#include "exec/thread_pool.h"

namespace uxm {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  num_threads_ = num_threads;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task: exceptions land in the caller's future
  }
}

void ThreadPool::Shutdown() {
  // Claim the worker handles under the lock so concurrent Shutdown calls
  // are safe: only the caller that swaps them out joins; everyone else
  // sees an empty vector and returns.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
}

int ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace uxm

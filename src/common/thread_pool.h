#ifndef TRANSPWR_COMMON_THREAD_POOL_H
#define TRANSPWR_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace transpwr {

/// Fixed-size worker pool running opaque thunks. Index-range work goes
/// through common/parallel, which layers slots and completion on submit().
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is a worker of any ThreadPool. The shared
  /// execution layer uses this to run nested parallel regions inline instead
  /// of re-entering the pool (which could otherwise deadlock: every worker
  /// waiting on tasks only parked workers could run).
  static bool in_worker();

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  bool stop_ = false;
};

}  // namespace transpwr

#endif  // TRANSPWR_COMMON_THREAD_POOL_H

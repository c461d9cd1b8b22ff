#ifndef ANGELPTM_UTIL_THREAD_POOL_H_
#define ANGELPTM_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace angelptm::util {

/// A fixed-size worker pool with a FIFO task queue. Used by the copy engine
/// for asynchronous page movements and by the compute kernels
/// (util/parallel_for.h).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns true if the task was accepted; returns false
  /// (and does not run the task) when called after Shutdown(), so callers
  /// can fail their promises instead of handing out futures that never
  /// resolve.
  [[nodiscard]] bool Submit(std::function<void()> task)
      ANGEL_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and all workers are idle. Must not be
  /// called from a pool task (a worker waiting on its own pool deadlocks).
  void Wait() ANGEL_EXCLUDES(mutex_);

  /// Stops accepting tasks, drains the queue, and joins the workers.
  /// Idempotent; also called by the destructor.
  void Shutdown() ANGEL_EXCLUDES(mutex_);

  size_t num_threads() const { return threads_.size(); }

  /// Number of tasks currently queued (excluding running ones).
  size_t QueueDepth() const ANGEL_EXCLUDES(mutex_);

 private:
  void WorkerLoop() ANGEL_EXCLUDES(mutex_);

  mutable Mutex mutex_{"util.thread_pool", lockrank::kThreadPool};
  CondVar task_available_;
  CondVar all_idle_;
  std::deque<std::function<void()>> queue_ ANGEL_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;
  size_t active_ ANGEL_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ ANGEL_GUARDED_BY(mutex_) = false;
};

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_THREAD_POOL_H_

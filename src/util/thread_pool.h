// A persistent fixed-width worker pool shared across queries, replacing the
// per-query std::thread spawning the engine used to do on its hot path.
//
// Design points:
//   * Submit() enqueues a task and returns a std::future<void>; a task that
//     throws stores the exception in the future (WaitAll() never throws).
//   * WaitAll() blocks until the queue is empty AND no task is running —
//     including tasks submitted by other tasks (nested Submit), because the
//     pending counter is incremented at Submit time.
//   * The pool is reusable: Submit() after WaitAll() is always valid; only
//     destruction shuts the workers down.
//   * Current() names the pool the calling thread works for. Blocking on a
//     future from inside a worker of the same pool can deadlock: a task
//     that wants help from its own pool must be able to finish without it
//     (SimSubEngine::Query's scan helpers join only while the scan runs).
//   * queued() counts the tasks still waiting for a worker, so a
//     long-running task can step aside for queued work.
#ifndef SIMSUB_UTIL_THREAD_POOL_H_
#define SIMSUB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace simsub::util {

class ThreadPool {
 public:
  /// The widest pool a tool flag may ask for (simsub_cli --threads,
  /// simsub_server --threads and --max_connections): a mistyped width is
  /// refused instead of starting that many threads.
  static constexpr int kMaxThreads = 256;

  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`. The future resolves when the task finishes; if the
  /// task threw, future.get() rethrows the exception.
  std::future<void> Submit(std::function<void()> task) SIMSUB_EXCLUDES(mu_);

  /// Blocks until every submitted task (including tasks submitted from
  /// within tasks) has finished. Exceptions stay in the futures.
  void WaitAll() SIMSUB_EXCLUDES(mu_);

  /// The pool whose worker the calling thread is, or null on any other
  /// thread.
  static ThreadPool* Current();

  /// Tasks submitted and not yet taken by a worker: a relaxed snapshot,
  /// read without the pool's lock.
  int64_t queued() const { return queued_.load(std::memory_order_relaxed); }

  /// Process-wide lazily-created pool with hardware_concurrency workers.
  /// Never destroyed (intentionally leaked so late Submits cannot race
  /// static teardown).
  static ThreadPool& Shared();

 private:
  struct Task {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void WorkerLoop() SIMSUB_EXCLUDES(mu_);

  mutable Mutex mu_;
  // condition_variable_any waits directly on the annotated Mutex (it is
  // BasicLockable), so the wait loops stay visible to the analysis.
  std::condition_variable_any task_ready_;  // signalled on Submit / shutdown
  std::condition_variable_any all_done_;    // signalled when pending_ hits 0
  std::deque<Task> queue_ SIMSUB_GUARDED_BY(mu_);
  int64_t pending_ SIMSUB_GUARDED_BY(mu_) = 0;  // queued + running tasks
  std::atomic<int64_t> queued_{0};  // queue_.size(), published for queued()
  bool stop_ SIMSUB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only in ctor/dtor
};

}  // namespace simsub::util

#endif  // SIMSUB_UTIL_THREAD_POOL_H_

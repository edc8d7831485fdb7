#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace simsub::util {

namespace {

// The pool owning the current thread. Thread-local so Current() needs no
// locking and works with any number of pools.
thread_local ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  SIMSUB_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  SIMSUB_CHECK(task != nullptr);
  Task t;
  t.fn = std::move(task);
  std::future<void> result = t.done.get_future();
  {
    MutexLock lock(mu_);
    SIMSUB_CHECK(!stop_) << "Submit() on a destroyed ThreadPool";
    queue_.push_back(std::move(t));
    queued_.store(static_cast<int64_t>(queue_.size()),
                  std::memory_order_relaxed);
    ++pending_;
  }
  task_ready_.notify_one();
  return result;
}

void ThreadPool::WaitAll() {
  MutexLock lock(mu_);
  // Explicit loop, not a predicate lambda: the analysis checks lambda
  // bodies as separate functions and could not see the lock held here.
  while (pending_ != 0) all_done_.wait(mu_);
}

ThreadPool* ThreadPool::Current() { return tls_pool; }

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) task_ready_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(static_cast<int64_t>(queue_.size()),
                    std::memory_order_relaxed);
    }
    try {
      task.fn();
      task.done.set_value();
    } catch (...) {
      task.done.set_exception(std::current_exception());
    }
    bool drained;
    {
      MutexLock lock(mu_);
      drained = --pending_ == 0;
    }
    if (drained) all_done_.notify_all();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* shared = new ThreadPool(
      std::max(1u, std::thread::hardware_concurrency()));
  return *shared;
}

}  // namespace simsub::util

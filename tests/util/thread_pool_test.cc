// Deterministic ThreadPool unit tests plus a contention stress test; the CI
// sanitizer matrix runs this file under SIMSUB_SANITIZE=thread to catch
// data races in the queue/counter plumbing.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace simsub::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FutureResolvesWhenTaskFinishes) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  std::future<void> f = pool.Submit([&ran] { ran.store(true); });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, SubmitAfterWaitAllReusesThePool) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.WaitAll();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitAllOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitAll();  // Nothing submitted; must not block.
  SUCCEED();
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing task.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ExceptionDoesNotBlockWaitAll) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  pool.WaitAll();  // Must count the failed task as finished.
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, NestedSubmitIsCountedByWaitAll) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.WaitAll();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, CurrentIdentifiesPoolThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::Current(), nullptr);  // Caller is not a worker.
  std::atomic<int> on_pool{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&pool, &on_pool] {
      if (ThreadPool::Current() == &pool) on_pool.fetch_add(1);
    });
  }
  pool.WaitAll();
  EXPECT_EQ(on_pool.load(), 64);
}

TEST(ThreadPoolTest, CurrentIsPerPool) {
  ThreadPool a(1);
  ThreadPool b(1);
  a.Submit([&a, &b] {
     EXPECT_EQ(ThreadPool::Current(), &a);
     EXPECT_NE(ThreadPool::Current(), &b);  // A's worker is not B's.
     b.Submit([&b] { EXPECT_EQ(ThreadPool::Current(), &b); }).get();
   }).get();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No WaitAll: destruction must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

// Stress: concurrent external submitters + nested submissions, exercised by
// the TSan job in CI.
TEST(ThreadPoolTest, StressConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 250;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&pool, &counter, i] {
          counter.fetch_add(1);
          if (i % 10 == 0) {
            pool.Submit([&counter] { counter.fetch_add(1); });
          }
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.WaitAll();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach +
                                kSubmitters * (kTasksEach / 10));
}

TEST(ThreadPoolTest, SharedPoolIsSingletonAndUsable) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_EQ(&shared, &ThreadPool::Shared());
  EXPECT_GE(shared.size(), 1);
  std::atomic<bool> ran{false};
  shared.Submit([&ran] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace simsub::util

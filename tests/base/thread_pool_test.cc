#include "src/base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace emeralds {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  // The fleet runner's pattern: a task re-enqueues the next slice of work.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::function<void(int)> chain = [&](int depth) {
    count.fetch_add(1, std::memory_order_relaxed);
    if (depth > 0) {
      pool.Submit([&chain, depth] { chain(depth - 1); });
    }
  };
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&chain] { chain(9); });
  }
  pool.Wait();  // must cover transitively submitted tasks
  EXPECT_EQ(count.load(), 16 * 10);
}

TEST(ThreadPoolTest, WorkStealingBalancesOneHeavyProducer) {
  // One task fans out 500 children into its own worker's deque, then blocks
  // until another worker has run one of them. While the producer blocks, its
  // worker cannot pop its own deque, so only a thief can make that happen;
  // the bounded wait turns a pool that never steals into a failure instead
  // of a hang.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> stolen{0};
  std::atomic<bool> bad_worker{false};
  std::atomic<bool> timed_out{false};
  pool.Submit([&] {
    const int producer = ThreadPool::CurrentWorker();
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&, producer] {
        int w = ThreadPool::CurrentWorker();
        if (w < 0 || w >= 4) {
          bad_worker.store(true);
        }
        if (w != producer) {
          stolen.fetch_add(1, std::memory_order_relaxed);
        }
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (stolen.load() == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
  EXPECT_FALSE(bad_worker.load());
  EXPECT_FALSE(timed_out.load()) << "no worker stole a child within 30 s";
  EXPECT_GT(stolen.load(), 0) << "no stealing happened";
}

TEST(ThreadPoolTest, CurrentWorkerIsMinusOneOffPool) {
  EXPECT_EQ(ThreadPool::CurrentWorker(), -1);
  ThreadPool pool(2);
  std::atomic<bool> on_pool_ok{false};
  pool.Submit([&] {
    int w = ThreadPool::CurrentWorker();
    on_pool_ok.store(w >= 0 && w < 2);
  });
  pool.Wait();
  EXPECT_TRUE(on_pool_ok.load());
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(257, [&](int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ManyPoolsConstructDestructCleanly) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destructor must drain and join without Wait().
  }
  SUCCEED();
}

}  // namespace
}  // namespace emeralds

// Work-stealing host thread pool.
//
// Drives the fleet runner's kernel-instance slices, the torture harness's
// parallel seed sweeps and the breakdown benches' workload sweeps. Each
// worker owns a deque: it pushes and pops its own work LIFO (cache-warm),
// and steals FIFO from a victim when empty (oldest work first — the classic
// Cilk discipline, so a stolen task is the one least likely to be hot in
// the victim's cache). Tasks may submit further tasks (the fleet runner
// re-enqueues an instance's next time slice from inside the previous one);
// submissions from a worker thread go to that worker's own deque.
//
// Everything is guarded by per-deque mutexes plus one idle mutex for
// sleep/wake — no lock-free tricks — so the pool is ThreadSanitizer-clean by
// construction, which the tsan CI job relies on.

#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace emeralds {

class ThreadPool {
 public:
  // `workers` <= 0 means one per hardware core.
  explicit ThreadPool(int workers = 0);
  // Waits for all submitted work to finish, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task. Called from a worker thread, the task lands on that
  // worker's own deque (LIFO locality); from outside, deques are fed
  // round-robin.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task (including tasks submitted by tasks)
  // has finished. Must not be called from a worker thread.
  void Wait();

  // Index of the pool worker running the current thread, -1 off-pool.
  // Torture's --jobs mode uses it to separate per-worker artifacts.
  static int CurrentWorker();

  // Convenience: fn(index) for index in [0, count), load-balanced across the
  // pool via one task per index; blocks until done.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> deque;
  };

  bool PopOwn(int self, std::function<void()>& task);
  bool Steal(int self, std::function<void()>& task);
  void RunOne(std::function<void()>& task);
  void WorkerMain(int self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep/wake protocol: Submit bumps signal_ under idle_mutex_ after
  // publishing the task, so a worker that re-checks signal_ before sleeping
  // can never miss a wakeup.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::condition_variable done_cv_;
  uint64_t signal_ = 0;
  size_t pending_ = 0;  // submitted but not yet finished (guarded by idle_mutex_)
  bool stop_ = false;   // guarded by idle_mutex_

  uint64_t round_robin_ = 0;  // guarded by idle_mutex_
};

}  // namespace emeralds

#endif  // SRC_BASE_THREAD_POOL_H_

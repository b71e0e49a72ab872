#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/flags.h"

namespace tpp {

ThreadPool::ThreadPool(int num_threads) {
  EnsureThreads(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::NumThreads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::EnsureThreads(int num_threads) {
  num_threads = std::min(num_threads, kMaxThreads);
  std::lock_guard<std::mutex> lock(mu_);
  while (!stopping_ && static_cast<int>(threads_.size()) < num_threads) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before stopping so no accepted task is dropped.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared state of one ParallelFor call. Helper tasks hold it by
// shared_ptr: a helper scheduled after the loop already finished finds
// the cursor exhausted and exits without touching caller-owned data (the
// body's captures may be gone by then, but the body itself lives here).
struct ParallelForState {
  std::function<void(size_t, size_t)> body;
  size_t n = 0;
  size_t grain = 1;
  std::atomic<size_t> cursor{0};
  std::atomic<int> active_helpers{0};
  std::mutex mu;
  std::condition_variable done_cv;

  // Claims and processes chunks until the range is exhausted.
  void Drain() {
    for (;;) {
      size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      body(begin, std::min(begin + grain, n));
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, int max_workers, size_t grain,
                             const std::function<void(size_t, size_t)>&
                                 body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  size_t chunks = (n + grain - 1) / grain;
  int workers = std::max(1, max_workers);
  workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(workers), chunks));
  if (workers > 1) EnsureThreads(workers - 1);
  if (workers <= 1 || NumThreads() == 0) {
    body(0, n);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->body = body;
  state->n = n;
  state->grain = grain;
  for (int w = 1; w < workers; ++w) {
    Run([state] {
      state->active_helpers.fetch_add(1);
      state->Drain();
      if (state->active_helpers.fetch_sub(1) == 1) {
        // Wake the caller; the lock orders this with its predicate check.
        std::lock_guard<std::mutex> lock(state->mu);
        state->done_cv.notify_all();
      }
    });
  }
  // The caller is always worker 0: even with a saturated (or nested-into)
  // pool the range drains without waiting on anyone.
  state->Drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] {
    return state->active_helpers.load() == 0;
  });
  // Helpers that never started will see an exhausted cursor and drop
  // their shared_ptr; nothing of the caller's frame escapes into them.
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(GlobalThreadCount());
  return pool;
}

}  // namespace tpp

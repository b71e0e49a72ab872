// ThreadPool: the process-wide worker pool behind every parallel sweep.
//
// Threads are created once per process (growing lazily up to the largest
// parallelism any caller requests) instead of once per batch, so hot
// paths like IndexedEngine's per-target row fill and PlanService::RunBatch
// pay no spawn cost per call. ParallelFor is the only coordination
// primitive the library needs: a blocking chunked loop in which the
// CALLING thread always participates, which makes nested ParallelFor calls
// (a service request running a parallel row fill) deadlock-free even when
// every pool thread is busy — the caller simply drains the chunks itself.

#ifndef TPP_COMMON_THREAD_POOL_H_
#define TPP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpp {

/// Fixed-capacity growing worker pool. All methods are thread-safe.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to [0, kMaxThreads]). A pool
  /// with 0 workers is valid: ParallelFor then runs entirely on the
  /// calling thread.
  explicit ThreadPool(int num_threads);

  /// Finishes all queued tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current number of worker threads.
  int NumThreads() const;

  /// Grows the pool to at least `num_threads` workers (no-op if already
  /// that large; clamped to kMaxThreads). Threads are only ever added,
  /// never removed, so repeated sweeps reuse the same workers.
  void EnsureThreads(int num_threads);

  /// Enqueues a fire-and-forget task.
  void Run(std::function<void()> task);

  /// Runs `body(begin, end)` over disjoint chunks covering [0, n), using
  /// at most `max_workers` concurrent workers (the calling thread plus up
  /// to max_workers - 1 pool threads; the pool grows if needed). Chunks
  /// are `grain` indices long (the last one shorter) and are claimed
  /// dynamically, so uneven per-index cost still balances. Blocks until
  /// every index is processed. Writes to disjoint output slots need no
  /// synchronization; all worker writes are visible once this returns.
  ///
  /// Safe to call from inside a pool task (nesting): progress never
  /// depends on a free pool thread.
  void ParallelFor(size_t n, int max_workers, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Hard upper bound on pool size, a runaway-request backstop.
  static constexpr int kMaxThreads = 256;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

/// The process-wide shared pool, lazily created on first use and sized by
/// GlobalThreadCount() (the --threads flag / TPP_THREADS resolution). It
/// grows on demand when a caller asks ParallelFor for more workers than
/// the initial size.
ThreadPool& GlobalThreadPool();

/// True iff TPP_PIN_THREADS=1: pool workers pin themselves to one CPU each
/// (worker i to core (i + 1) mod hardware_concurrency, leaving core 0 to
/// the calling thread) via pthread_setaffinity_np on Linux; a no-op
/// elsewhere. Off by default — the first measurement toward the
/// NUMA/affinity roadmap item; bench/solver_rounds records this flag in
/// its JSON so pinned and unpinned runs are distinguishable.
bool ThreadPinningEnabled();

}  // namespace tpp

#endif  // TPP_COMMON_THREAD_POOL_H_

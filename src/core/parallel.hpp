// The tensor engine's std::thread compute pool and a task thread pool.
//
// Data-parallel kernels split their work into a fixed number of tasks and
// hand them to run_compute_tasks, which runs them on one shared,
// lazily-grown pool; set_num_threads is the single thread-count knob.
//
// ThreadPool is the coarse-grained counterpart: long-lived std::thread
// workers executing independent tasks (one task = one NAS trial). Pool
// tasks may themselves launch parallel kernels; keep the product of pool
// size and set_num_threads at or below the machine's core count to avoid
// oversubscription.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace dcn {

/// Set the number of threads the compute pool targets (see
/// compute_threads()). Values < 1 reset to the hardware default. Returns the
/// previous setting, 0 meaning the default, so a caller can restore it. Safe
/// to call concurrently with compute_threads() (the setting is a single
/// atomic), though in-flight kernel launches keep the count they started
/// with.
int set_num_threads(int n);

/// Pins the compute pool's thread count to `n` for a scope and restores the
/// previous setting when the scope ends, also by an exception. n < 1 pins
/// nothing (the setting stays as it is).
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n)
      : pinned_(n >= 1), previous_(pinned_ ? set_num_threads(n) : 0) {}
  ~ScopedNumThreads() {
    if (pinned_) set_num_threads(previous_);
  }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  bool pinned_;
  int previous_;
};

/// Number of threads the tensor-engine compute pool targets: the
/// set_num_threads() override when present, else the hardware concurrency.
int compute_threads();

/// True when the calling thread is a shared-compute-pool worker. Parallel
/// kernels use this to run nested parallel regions inline instead of
/// re-submitting to the pool, which could deadlock a fully occupied pool.
bool in_compute_worker();

/// Run fn(task) for task in [0, tasks) on the shared compute pool and block
/// until all tasks finish. Task 0 runs on the calling thread so the caller
/// is not parked while workers do all the lifting. Falls back to an inline
/// serial loop when tasks <= 1, compute_threads() == 1, or when invoked
/// from a pool worker. Exceptions from tasks are rethrown (first one wins).
///
/// Determinism contract: callers that need bit-reproducible results across
/// thread counts must make the *decomposition* (what each task computes and
/// the order partial results are reduced) independent of compute_threads();
/// this function only varies which thread executes a task, never what a
/// task is. See DESIGN.md "Tensor-engine threading model".
void run_compute_tasks(int tasks, const std::function<void(int)>& fn);

/// Piece `c` of the contiguous near-even partition of [0, n) into `chunks`
/// pieces, as [first, second); the first n % chunks pieces hold one extra
/// element. The batch-parallel conv and executor loops split samples with
/// it: the partition depends only on (n, chunks), so it is one way to keep
/// a decomposition independent of the thread count.
std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n,
                                                  std::int64_t chunks,
                                                  std::int64_t c);

/// Fixed-size pool of std::thread workers draining a FIFO task queue.
/// Tasks run in submission order (though they complete in any order); an
/// exception escaping a task is captured and rethrown from the
/// corresponding future's get().
class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int threads);
  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dcn

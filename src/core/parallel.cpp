#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace dcn {
namespace {
// Atomic: read by compute_threads() from pool workers while the main thread
// may call set_num_threads.
std::atomic<int> g_num_threads{0};  // 0 = hardware default

// Shared compute pool for the tensor engine. Created lazily at the first
// parallel kernel launch and grown (replaced) when a larger thread count is
// requested; callers hold a shared_ptr so a pool in use is never destroyed
// under them. Workers flag themselves via tls_compute_worker so nested
// kernel launches run inline.
thread_local bool tls_compute_worker = false;

std::mutex g_compute_pool_mutex;
std::shared_ptr<ThreadPool> g_compute_pool;

std::shared_ptr<ThreadPool> acquire_compute_pool(int threads) {
  std::lock_guard<std::mutex> lock(g_compute_pool_mutex);
  if (!g_compute_pool || g_compute_pool->size() < threads) {
    g_compute_pool = std::make_shared<ThreadPool>(threads);
  }
  return g_compute_pool;
}
}  // namespace

int set_num_threads(int n) {
  return g_num_threads.exchange(n < 1 ? 0 : n, std::memory_order_relaxed);
}

int compute_threads() {
  const int n = g_num_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool in_compute_worker() { return tls_compute_worker; }

void run_compute_tasks(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  if (tasks == 1 || compute_threads() == 1 || tls_compute_worker) {
    for (int t = 0; t < tasks; ++t) fn(t);
    return;
  }
  const auto pool = acquire_compute_pool(compute_threads());
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(tasks - 1));
  for (int t = 1; t < tasks; ++t) {
    futures.push_back(pool->submit([&fn, t] {
      // Flag the worker for the duration of the task so nested kernel
      // launches inside fn run inline (restored even if fn throws).
      struct Flag {
        Flag() { tls_compute_worker = true; }
        ~Flag() { tls_compute_worker = false; }
      } flag;
      fn(t);
    }));
  }
  fn(0);  // the caller contributes instead of idling on the futures
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n,
                                                  std::int64_t chunks,
                                                  std::int64_t c) {
  const std::int64_t base = n / chunks;
  const std::int64_t rem = n % chunks;
  const std::int64_t lo = c * base + std::min(c, rem);
  return {lo, lo + base + (c < rem ? 1 : 0)};
}

void for_each_sample(std::int64_t batch,
                     const std::function<void(std::int64_t)>& run_sample) {
  const int tasks =
      static_cast<int>(std::min<std::int64_t>(compute_threads(), batch));
  if (tasks <= 1) {
    for (std::int64_t n = 0; n < batch; ++n) run_sample(n);
    return;
  }
  run_compute_tasks(tasks, [&](int t) {
    const auto [lo, hi] = chunk_range(batch, tasks, t);
    for (std::int64_t n = lo; n < hi; ++n) run_sample(n);
  });
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured into the task's future
  }
}

}  // namespace dcn

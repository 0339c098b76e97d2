#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/text.hpp"

namespace dart::common {
namespace {
thread_local bool t_inside_pool = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  check_at_most("ThreadPool: num_threads", num_threads, kMaxThreads);
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    error = pending_error_;
    pending_error_ = nullptr;
  }
  // Rethrown outside the lock so the handler can submit new work.
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  t_inside_pool = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    // A throwing task must not take the worker (std::terminate) or vanish
    // silently: capture the exception for the next wait_idle() caller.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !pending_error_) pending_error_ = error;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::instance() {
  // DART_THREADS overrides the worker count (0 = hardware_concurrency).
  static ThreadPool pool(env_uint("DART_THREADS", 0, kMaxThreads));
  return pool;
}

bool ThreadPool::inside_worker() { return t_inside_pool; }

bool pin_current_thread(std::size_t core) {
#if defined(__linux__)
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % hw), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

std::size_t plan_blocks(std::size_t n, std::size_t min_grain) {
  if (n == 0) return 0;
  const std::size_t workers = ThreadPool::instance().size();
  // Inline cases: small range, single worker, or already inside a pool task
  // (nested fork-join would deadlock a bounded pool waiting on itself).
  if (t_inside_pool || n <= min_grain || workers <= 1) return 1;
  const std::size_t blocks = std::min(workers * 2, (n + min_grain - 1) / min_grain);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  return (n + chunk - 1) / chunk;
}

void parallel_for_blocks(std::size_t n,
                         const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                         std::size_t min_grain) {
  if (n == 0) return;
  const std::size_t blocks = plan_blocks(n, min_grain);
  if (blocks <= 1) {
    body(0, 0, n);
    return;
  }
  auto& pool = ThreadPool::instance();
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = blocks;
  std::exception_ptr first_error;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    pool.submit([&, b, begin, end] {
      // A throwing block must still decrement `remaining` (or the join
      // below waits forever); the first exception is rethrown to the
      // forking caller after every block finished.
      std::exception_ptr error;
      try {
        body(b, begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      // Decrement under the mutex so the waiter cannot destroy the
      // synchronization state while this worker still references it.
      std::lock_guard lock(done_mutex);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  lock.unlock();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_grain) {
  parallel_for_blocks(
      n, [&](std::size_t, std::size_t begin, std::size_t end) { body(begin, end); }, min_grain);
}

void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body,
                       std::size_t min_grain) {
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      min_grain);
}

}  // namespace dart::common

// Shared fork-join thread pool used by all compute-heavy subsystems
// (matmul, k-means, PQ encoding, simulator sweeps).
//
// Design follows the hpc-parallel guidance: a single process-wide pool,
// OpenMP-style `parallel_for` over index ranges, static block partitioning,
// and no shared mutable state inside loop bodies (each worker owns a
// disjoint index range).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dart::common {

/// Upper bound on a pool's worker count (and on DART_THREADS), the same as
/// the serving layer's shard bound: past it a typo would start that many
/// threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// A fixed-size worker pool executing arbitrary tasks.
///
/// Tasks are `std::function<void()>`; `wait_idle()` blocks until every
/// submitted task has finished. A task that throws never terminates the
/// process: the worker captures the `std::exception_ptr` and the next
/// `wait_idle()` call rethrows the first captured exception to the waiting
/// caller (later ones from the same batch are dropped — one failure is
/// enough to fail the wait, and the pool itself stays usable). The
/// fork-join helpers below (`parallel_for*`) propagate the same way at
/// their own join point. The pool is non-copyable and joins its workers on
/// destruction (RAII, C++ Core Guidelines CP.25).
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `hardware_concurrency()`.
  /// Throws InputError, before starting any thread, when `num_threads`
  /// exceeds kMaxThreads.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle, then
  /// rethrows the first exception any task threw since the last wait
  /// (clearing the captured backlog).
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool, created on first use.
  static ThreadPool& instance();

  /// True when the calling thread is a pool worker — callers must then run
  /// work inline instead of fork-joining (a bounded pool cannot wait on
  /// itself without risking deadlock).
  static bool inside_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  /// First exception thrown by a task since the last wait_idle(); kept
  /// under mutex_ and rethrown (then cleared) at the next wait_idle().
  std::exception_ptr pending_error_;
};

/// Pins the calling thread to CPU `core` (modulo the hardware core count).
/// Used by long-lived worker threads that own per-core state — e.g. the
/// serve-layer shard engines (DART_SERVE_PIN) — to keep their workspaces
/// and ring cache lines resident on one core. Returns false when the
/// platform does not support affinity or the kernel refuses (restricted
/// cpusets); callers treat pinning as a best-effort hint.
bool pin_current_thread(std::size_t core);

/// Number of blocks `parallel_for_blocks(n, ..., min_grain)` will use — 1
/// when the range would run inline (small n, single worker, or nested under
/// a pool worker). Lets callers preallocate per-block state (e.g. one
/// tabular::InferenceWorkspace per block) before forking.
std::size_t plan_blocks(std::size_t n, std::size_t min_grain = 1024);

/// Splits `[0, n)` into `plan_blocks(n, min_grain)` contiguous blocks and
/// runs `body(block, begin, end)` on the shared pool, with `block` the
/// dense block index in [0, plan_blocks(...)). This is the ONLY fork-join
/// entry point that may be reached from the inference batch split — called
/// from inside a pool worker it degrades to one inline block, so kernels
/// invoked underneath it stay serial (single-level threading, DESIGN.md §6).
///
/// `body` must be safe to run concurrently on disjoint ranges.
void parallel_for_blocks(std::size_t n,
                         const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                         std::size_t min_grain = 1024);

/// Block variant without the block index.
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_grain = 1024);

/// Convenience per-index variant: runs `body(i)` for i in [0, n).
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body,
                       std::size_t min_grain = 256);

}  // namespace dart::common

// Fixed-size worker pool with a blocking parallel_for, used by the simulated
// GPU to execute thread-blocks and by the cluster simulator to run nodes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace lasagna::util {

/// Smallest chunk `parallel_for_chunked` hands out for loops whose body does
/// a few nanoseconds of work per element (record copies, gathers, binary
/// searches). Below this a chunk costs more in queueing and wake-ups than it
/// saves, so such loops pass it as `grain` and small ranges run inline.
/// Loops over heavy items (radix partitions, kernel blocks) keep grain 1.
/// A constant rather than a setting: it is a property of the host's task
/// hand-off cost, not of the input, and it never changes the output.
inline constexpr std::size_t kElementGrain = 16 * 1024;

/// A fixed pool of worker threads executing queued tasks.
///
/// Tasks given to `submit` must not throw; exceptions escaping such a task
/// terminate the process (matching the CUDA model where a faulting kernel
/// kills the context). Use `parallel_for` for bulk data-parallel work; it
/// rethrows a failing chunk's exception in the caller.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 -> hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Run `body(i)` for every i in [0, count), split into `size()`-ish chunks,
  /// and block until all iterations complete. `body` must be thread-safe.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Run `body(begin, end)` over contiguous index ranges covering [0, count)
  /// and block until all complete. At most `4 * size()` chunks, none shorter
  /// than `grain` indices (unless `count` itself is). A range that fits in
  /// one chunk runs inline on the caller and submits nothing; otherwise the
  /// caller runs the first chunk itself while the workers take the rest.
  /// Called from one of this pool's own tasks, the whole range runs inline.
  /// If chunks throw, the first chunk's exception (lowest begin) is rethrown
  /// in the caller once every chunk has finished.
  void parallel_for_chunked(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 1);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Recompute the pool.utilization_pct gauge (busy time over wall time
  /// across all workers since construction).
  void update_utilization();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;

  // Cached global-registry metrics (stable addresses, relaxed atomics):
  // pool.tasks_submitted/completed, pool.busy_ns (summed task latency),
  // pool.queue_depth (+ high-water), pool.utilization_pct.
  obs::Counter& tasks_submitted_;
  obs::Counter& tasks_completed_;
  obs::Counter& busy_ns_;
  obs::Gauge& queue_depth_;
  obs::Gauge& queue_depth_peak_;
  obs::Gauge& utilization_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace lasagna::util

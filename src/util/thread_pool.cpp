#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace lasagna::util {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

/// The pool whose worker loop runs on this thread (nullptr off the pool).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : tasks_submitted_(registry().counter("pool.tasks_submitted")),
      tasks_completed_(registry().counter("pool.tasks_completed")),
      busy_ns_(registry().counter("pool.busy_ns")),
      queue_depth_(registry().gauge("pool.queue_depth")),
      queue_depth_peak_(registry().gauge("pool.queue_depth_peak")),
      utilization_(registry().gauge("pool.utilization_pct")),
      start_time_(std::chrono::steady_clock::now()) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
  update_utilization();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  tasks_submitted_.add(1);
  queue_depth_.set(static_cast<std::int64_t>(depth));
  queue_depth_peak_.set_max(static_cast<std::int64_t>(depth));
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
  lock.unlock();
  update_utilization();
}

void ThreadPool::update_utilization() {
  const auto elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  const std::int64_t budget =
      elapsed_ns * static_cast<std::int64_t>(workers_.size());
  if (budget <= 0) return;
  utilization_.set(busy_ns_.value() * 100 / budget);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(count, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::parallel_for_chunked(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (count == 0) return;
  const std::size_t chunks =
      std::clamp<std::size_t>(count / std::max<std::size_t>(grain, 1), 1,
                              size() * 4);
  // A pool task that fans out again runs inline: queueing sub-chunks behind
  // itself could leave every worker waiting on work no thread will take.
  if (chunks == 1 || t_worker_of == this) {
    body(0, count);
    return;
  }
  // Chunk c covers [c*count/chunks, (c+1)*count/chunks): sizes differ by at
  // most one, so each holds at least count/chunks >= grain indices.
  const auto bound = [count, chunks](std::size_t c) {
    return c * count / chunks;
  };
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks - 1;
  std::vector<std::exception_ptr> errors(chunks);

  for (std::size_t c = 1; c < chunks; ++c) {
    submit([&, c] {
      try {
        body(bound(c), bound(c + 1));
      } catch (...) {
        errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  // The caller works instead of sleeping; it must still wait for every
  // worker chunk before leaving, since they reference this frame.
  try {
    body(0, bound(1));
  } catch (...) {
    errors[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  // Rethrow in the caller (a faulting kernel surfaces where the launch
  // happened, like a CUDA error code would).
  for (const auto& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
      ++active_;
    }
    queue_depth_.set(static_cast<std::int64_t>(depth));
    const auto task_start = std::chrono::steady_clock::now();
    task();
    busy_ns_.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - task_start)
                     .count());
    tasks_completed_.add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace lasagna::util

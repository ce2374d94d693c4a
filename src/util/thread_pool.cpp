#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/check.hpp"

namespace fairdms::util {

namespace {

/// The pool whose task this thread is running, if any (innermost).
thread_local const ThreadPool* t_task_pool = nullptr;

/// Runs one task of `pool` with the calling thread marked as inside it.
void run_task(const ThreadPool* pool, const std::function<void()>& task) {
  struct Mark {
    const ThreadPool* outer = t_task_pool;
    explicit Mark(const ThreadPool* p) { t_task_pool = p; }
    ~Mark() { t_task_pool = outer; }
  } mark(pool);
  task();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::size_t max_queue)
    : max_queue_(max_queue) {
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
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    FAIRDMS_CHECK(!stop_, "submit() on stopped pool");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    FAIRDMS_CHECK(!stop_, "try_submit() on stopped pool");
    if (max_queue_ != 0 && tasks_.size() >= max_queue_) return false;
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
  return true;
}

std::size_t ThreadPool::queue_depth() const {
  MutexLock lock(mutex_);
  return tasks_.size();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  // Explicit loop (not a wait-with-predicate): TSA analyzes a predicate
  // lambda as a separate function, where the capability is not visibly
  // held, so `in_flight_` must be read in this scope.
  while (in_flight_ != 0) cv_idle_.wait(lock.native());
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  run_task(this, task);
  {
    MutexLock lock(mutex_);
    --in_flight_;
    if (in_flight_ == 0) cv_idle_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(lock.native());
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(this, task);
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  parallel_for_chunked(
      n,
      [&body](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        body(begin, end);
      },
      min_grain);
}

void ThreadPool::parallel_for_chunked(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (n == 0) return;
  min_grain = std::max<std::size_t>(1, min_grain);
  // ~3x oversubscription balances load without excessive task overhead.
  const std::size_t target_chunks =
      std::max<std::size_t>(1, std::min(n / min_grain, size() * 3));
  if (target_chunks <= 1 || size() <= 1) {
    body(0, 0, n);
    return;
  }
  const std::size_t chunk_size = (n + target_chunks - 1) / target_chunks;
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;

  std::atomic<std::size_t> remaining{chunks};
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    submit([&, c, begin, end] {
      body(c, begin, end);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  // Help-while-waiting: the calling thread drains queued tasks instead of
  // blocking, so nested parallel_for from inside a worker cannot deadlock
  // (every blocked waiter is also an executor).
  while (remaining.load(std::memory_order_acquire) != 0) {
    if (!try_run_one()) std::this_thread::yield();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::in_parallel_task() noexcept {
  return t_task_pool != nullptr && t_task_pool->size() > 1;
}

}  // namespace fairdms::util

#include "run/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace sigvp::run {

namespace {
// Set at worker start and while a non-worker thread helps execute pool
// tasks, so nested-parallelism budgets see helpers as workers too.
thread_local bool tl_pool_worker = false;
}  // namespace

std::size_t ThreadPool::default_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool ThreadPool::on_worker_thread() { return tl_pool_worker; }

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = default_workers();
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SIGVP_REQUIRE(static_cast<bool>(task), "null task submitted to thread pool");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SIGVP_REQUIRE(!stopping_, "submit on a stopping thread pool");
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::finish_task() {
  std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
  if (in_flight_ == 0) all_done_.notify_all();
}

bool ThreadPool::help_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  const bool was_worker = tl_pool_worker;
  tl_pool_worker = true;
  task();
  tl_pool_worker = was_worker;
  finish_task();
  return true;
}

void ThreadPool::worker_loop() {
  tl_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    finish_task();
  }
}

namespace {

/// Completion tracking for one parallel_for call, so several calls can
/// share one pool: each call waits for *its* chunks, not for pool idleness
/// (wait_idle from inside a pool task would deadlock on its own task).
struct TaskGroup {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = 0;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Chunked dispatch: tiny per-item work (fleet-domain advancement, 100k-VP
  // construction) must not pay one queue round-trip per item.
  const std::size_t grain = std::max<std::size_t>(1, count / (pool.size() * 4));
  const std::size_t n_chunks = (count + grain - 1) / grain;

  // First exception per chunk; chunks are in index order, and within a chunk
  // the first failing index is recorded, so rethrowing the first non-null
  // entry preserves the "lowest index wins" contract of the unchunked
  // implementation.
  std::vector<std::exception_ptr> errors(n_chunks);
  auto group = std::make_shared<TaskGroup>();
  group->remaining = n_chunks;

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(count, begin + grain);
    pool.submit([begin, end, c, &fn, &errors, group] {
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (!errors[c]) errors[c] = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> lock(group->mutex);
        --group->remaining;
      }
      group->done.notify_all();
    });
  }

  // Help-while-waiting: run queued tasks (ours or another group's) on this
  // thread; sleep only when the queue is momentarily empty — at that point
  // every chunk of this group is either done or executing on some thread,
  // so the final decrement's notify is guaranteed to arrive.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(group->mutex);
      if (group->remaining == 0) break;
    }
    if (pool.help_one()) continue;
    std::unique_lock<std::mutex> lock(group->mutex);
    group->done.wait(lock, [&group, &pool] {
      return group->remaining == 0;
    });
    (void)pool;
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t inner_parallel_workers(std::size_t requested) {
  if (ThreadPool::on_worker_thread()) return 1;
  return requested == 0 ? ThreadPool::default_workers() : requested;
}

namespace {
std::atomic<std::size_t> g_fleet_shards{1};
std::mutex g_fleet_pool_mutex;
std::unique_ptr<ThreadPool> g_fleet_pool;
}  // namespace

void set_fleet_shards(std::size_t shards) {
  g_fleet_shards.store(shards == 0 ? 1 : shards, std::memory_order_relaxed);
}

std::size_t fleet_shards() { return g_fleet_shards.load(std::memory_order_relaxed); }

ThreadPool& fleet_pool(std::size_t workers) {
  SIGVP_REQUIRE(workers >= 1, "fleet pool needs at least one worker");
  std::lock_guard<std::mutex> lock(g_fleet_pool_mutex);
  if (g_fleet_pool == nullptr || g_fleet_pool->size() != workers) {
    g_fleet_pool = std::make_unique<ThreadPool>(workers);
  }
  return *g_fleet_pool;
}

}  // namespace sigvp::run

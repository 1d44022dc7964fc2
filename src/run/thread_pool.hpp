#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sigvp::run {

/// Fixed-size pool of host worker threads.
///
/// The simulation itself is single-threaded by design (one deterministic
/// EventQueue per domain); the pool provides *host-side* parallelism across
/// independent units of work — sweep jobs, and the fleet executor's shard
/// advancement between synchronization horizons. Tasks are drained FIFO;
/// worker count is fixed at construction.
///
/// parallel_for() is safe to call from inside a pool task (the caller helps
/// execute queued tasks while waiting on its own group), so nested parallel
/// regions — a sweep job advancing fleet shards on the shared pool — cannot
/// deadlock the pool.
class ThreadPool {
 public:
  /// `workers == 0` picks `default_workers()`.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task. Tasks must not throw — wrap fallible work yourself
  /// (parallel_for does) so exceptions can be reported to the caller.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Pops and runs one queued task on the calling thread; false when the
  /// queue was empty. parallel_for's wait loop uses this so a caller that
  /// is itself a pool task keeps making progress instead of deadlocking.
  bool help_one();

  /// Total tasks ever submitted to this pool. The parallel_for grain
  /// regression test pins chunking behaviour with this counter.
  std::uint64_t tasks_submitted() const { return submitted_.load(std::memory_order_relaxed); }

  /// Host hardware concurrency, never less than 1.
  static std::size_t default_workers();

  /// True when the calling thread is a worker of *any* ThreadPool. Nested
  /// parallel regions (e.g. the block-parallel kernel interpreter running
  /// inside a SweepRunner job) use this to avoid oversubscribing the host.
  static bool on_worker_thread();

 private:
  void worker_loop();
  void finish_task();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;  // queued + executing
  bool stopping_ = false;
  std::atomic<std::uint64_t> submitted_{0};
  std::vector<std::thread> threads_;
};

/// Runs `fn(0) ... fn(count-1)` on the pool and waits for all of them.
///
/// Indices are dispatched in contiguous chunks of `max(1, count /
/// (pool.size() * 4))` so tiny per-item work (100k-VP fleet domains) does
/// not drown in per-task queue overhead. Every index runs even if earlier
/// ones throw; the first exception (lowest index) is rethrown after all
/// chunks have finished, so no work is silently lost mid-sweep. The calling
/// thread helps execute queued tasks while it waits, which makes nested
/// parallel_for calls on one shared pool deadlock-free.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Nested-parallelism budget: the worker count an *inner* parallel region
/// should actually use when `requested` workers were asked for (0 = "pick
/// for me"). On a pool worker thread the outer layer already owns the host
/// cores, so the budget collapses to 1 (serial); on any other thread it
/// resolves 0 to `ThreadPool::default_workers()` and passes explicit
/// requests through. This is what keeps sweep × interpreter thread counts
/// from multiplying.
std::size_t inner_parallel_workers(std::size_t requested);

/// Process-wide shard-execution knob (`--shards` / SIGVP_SHARDS): how many
/// host threads the fleet executor may advance simulation domains on.
/// Execution-only — it never appears in a scenario fingerprint and never
/// changes a result byte; `FleetConfig::domains` is the semantic knob.
/// Default 1 (serial domain advancement). Must not change while a sharded
/// scenario runs: the next fleet_pool() call would rebuild the pool under it.
void set_fleet_shards(std::size_t shards);
std::size_t fleet_shards();

/// The shared fleet ThreadPool: one process-wide pool of exactly `workers`
/// threads, rebuilt whenever a call asks for a different size, and shared
/// by every concurrently-running sharded scenario (group-based parallel_for
/// makes concurrent use safe). Every scenario asks for fleet_shards(), so
/// concurrent scenarios agree on the size and never rebuild the pool that
/// another one is using.
ThreadPool& fleet_pool(std::size_t workers);

}  // namespace sigvp::run

// Fixed-size worker pool with a shared FIFO task queue.
//
// Follows C++ Core Guidelines CP.41 (minimize thread creation/destruction:
// threads are created once and reused for every block) and CP.24/CP.25
// (joining threads, no detach).  Tasks are type-erased std::move_only_function
// objects; submission never blocks, shutdown drains outstanding tasks.
//
// One pool is shared by a node's execution regions (proposer and validator
// lanes), its commit pipeline and its store sweeps.  A parallel region
// therefore joins through fork_join(), which waits for that region's own
// lanes only; wait_idle() would also wait for every other submitter's work.
// for_each_lane() is the null-pool-aware form the commitment path uses: the
// same loop body runs serially without a pool and across lanes with one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blockpilot {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers.  Each worker is given a stable index in
  /// [0, threads) accessible to tasks via ThreadPool::worker_index().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution by any worker.
  void submit(Task task);

  /// Runs lane(0) .. lane(lanes - 1) and `caller` (if any), then returns
  /// once every lane has returned.  Lanes are claimed from one counter, so
  /// each runs exactly once: helper tasks on the pool claim lanes while the
  /// calling thread runs `caller`, and then the calling thread claims every
  /// lane still unclaimed itself (a helping join).  It waits only for lanes
  /// a helper already started, never for other submitters' tasks (commit
  /// seals, persists, store sweeps), so it may be called from one of this
  /// pool's own workers and nest: a region always completes on its caller
  /// alone, whatever the pool is busy with.  Lanes may therefore run
  /// one after another on one thread; a lane must not wait for another
  /// lane that has not started.  With lanes == 1, lane(0) runs inline, then
  /// `caller`.  The first exception a lane or `caller` throws is rethrown
  /// here, after every lane has returned.
  void fork_join(std::size_t lanes,
                 const std::function<void(std::size_t)>& lane,
                 const std::function<void()>& caller = {});

  /// Blocks until the pool is idle: the queue is empty and no task runs.
  /// Drains *every* submitter's tasks, not just the caller's, so it is for
  /// teardown and tests only; parallel regions join with fork_join().
  void wait_idle();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Total tasks completed since construction (monotone; lock-free read).
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Index of the calling pool worker, or SIZE_MAX when called from a
  /// non-pool thread.  Workers use this to maintain per-thread state
  /// (virtual-time ledgers, scratch EVMs) without false sharing.
  static std::size_t worker_index() noexcept { return worker_index_; }

 private:
  void worker_loop(std::size_t index);

  // Layout constraint: the queue mutex (and the state it guards), the
  // lock-free stats counter, and the cold worker handles each start on
  // their own 64-byte cache line.  Executor threads hammer the mutex line
  // on every pop while others increment the counter after every task —
  // co-locating them would put that traffic into one false-shared line and
  // show up directly in the proposer's Fig. 6 scaling curve.
  static constexpr std::size_t kCacheLine = 64;

  alignas(kCacheLine) std::mutex mu_;   // guards queue_/active_/stop_
  std::condition_variable cv_task_;     // signalled when a task is enqueued
  std::condition_variable cv_idle_;     // signalled when the pool drains
  std::deque<Task> queue_;
  std::size_t active_ = 0;              // tasks currently running
  bool stop_ = false;

  alignas(kCacheLine) std::atomic<std::uint64_t> tasks_executed_{0};

  alignas(kCacheLine) std::vector<std::jthread> workers_;

  static thread_local std::size_t worker_index_;
  static thread_local const ThreadPool* worker_pool_;  // pool of this worker
};

/// body(0) .. body(n - 1): in index order on the calling thread when `pool`
/// is null, else as the lanes of pool->fork_join(n, body).  Callers order
/// the indices heaviest first, so lanes claimed in index order make a
/// longest-processing-time schedule.
void for_each_lane(ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t)>& body);

}  // namespace blockpilot

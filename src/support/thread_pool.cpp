#include "support/thread_pool.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "support/assert.hpp"

namespace blockpilot {

thread_local std::size_t ThreadPool::worker_index_ =
    std::numeric_limits<std::size_t>::max();
thread_local const ThreadPool* ThreadPool::worker_pool_ = nullptr;

ThreadPool::ThreadPool(std::size_t threads) {
  BP_ASSERT(threads > 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  // std::jthread joins on destruction; workers drain the queue before exit.
}

void ThreadPool::submit(Task task) {
  BP_ASSERT(task);
  {
    std::scoped_lock lk(mu_);
    BP_ASSERT_MSG(!stop_, "submit() after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

namespace {

// One fork_join region's shared state.  Helpers that the pool runs after
// the region returned still reach it (they hold a reference), claim an
// index past the end and leave; `lane` is dereferenced only for a claimed
// lane, which the caller waits for, so it never outlives the caller's
// frame.
struct Region {
  const std::function<void(std::size_t)>* lane = nullptr;
  std::size_t lanes = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // guarded by mu

  void fail(std::exception_ptr e) {
    std::scoped_lock lk(mu);
    if (!error) error = std::move(e);
  }

  // Runs unclaimed lanes until none is left.
  void drain() {
    for (;;) {
      const std::size_t l = next.fetch_add(1, std::memory_order_relaxed);
      if (l >= lanes) return;
      try {
        (*lane)(l);
      } catch (...) {
        fail(std::current_exception());
      }
      // Notify under the lock: the waiter checks `done` under it, so the
      // last lane's notification cannot slip in between check and wait.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == lanes) {
        std::scoped_lock lk(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::fork_join(std::size_t lanes,
                           const std::function<void(std::size_t)>& lane,
                           const std::function<void()>& caller) {
  BP_ASSERT(lanes > 0);
  if (lanes == 1) {
    lane(0);
    if (caller) caller();
    return;
  }
  auto region = std::make_shared<Region>();
  region->lane = &lane;
  region->lanes = lanes;
  // Helpers: one per lane the caller will not start at once, and no more
  // than the workers that could run them (a worker calling in is busy).
  const std::size_t free_workers = size() - (worker_pool_ == this ? 1 : 0);
  const std::size_t helpers =
      std::min(caller ? lanes : lanes - 1, free_workers);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([region] { region->drain(); });
  if (caller) {
    try {
      caller();
    } catch (...) {
      region->fail(std::current_exception());
    }
  }
  region->drain();
  std::unique_lock lk(region->mu);
  region->cv.wait(lk, [&region] {
    return region->done.load(std::memory_order_acquire) == region->lanes;
  });
  if (region->error) std::rethrow_exception(region->error);
}

void for_each_lane(ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (n > 0) pool->fork_join(n, body);
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::size_t index) {
  worker_index_ = index;
  worker_pool_ = this;
  for (;;) {
    Task task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::scoped_lock lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace blockpilot

#include "support/thread_pool.hpp"

#include <limits>

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

void ThreadPool::fork_join(std::size_t lanes,
                           const std::function<void(std::size_t)>& lane,
                           const std::function<void()>& caller) {
  BP_ASSERT(lanes > 0);
  if (lanes == 1) {
    lane(0);
    if (caller) caller();
    return;
  }
  // A worker waiting here would hold a slot its own lanes may need.
  BP_ASSERT_MSG(worker_pool_ != this, "fork_join() from a pool worker");

  // The join lives on this stack frame.  Lanes count down under the lock,
  // so the waiter cannot return (and destroy it) while a lane is still
  // inside notify.  Every lane is joined even when one fails: lanes read
  // the caller's locals.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::exception_ptr error;

    void fail(std::exception_ptr e) {
      std::scoped_lock lk(mu);
      if (!error) error = std::move(e);
    }
  } join;
  join.pending = lanes;

  for (std::size_t l = 0; l < lanes; ++l) {
    submit([&join, &lane, l] {
      try {
        lane(l);
      } catch (...) {
        join.fail(std::current_exception());
      }
      std::scoped_lock lk(join.mu);
      if (--join.pending == 0) join.cv.notify_one();
    });
  }
  if (caller) {
    try {
      caller();
    } catch (...) {
      join.fail(std::current_exception());
    }
  }
  std::unique_lock lk(join.mu);
  join.cv.wait(lk, [&join] { return join.pending == 0; });
  if (join.error) std::rethrow_exception(join.error);
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

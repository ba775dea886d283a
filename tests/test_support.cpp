#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "vtime/vtime.hpp"

namespace blockpilot {
namespace {

TEST(Xoshiro, DeterministicFromSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Xoshiro256 a2(42), c2(43);
  EXPECT_NE(a2(), c2());
}

TEST(Xoshiro, BelowRespectsBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Xoshiro, Uniform01InRange) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  Xoshiro256 rng(11);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 20);  // rank 0 well above uniform share
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Xoshiro256 rng(13);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TasksExecutedCounterIsExact) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.tasks_executed(), 0u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 250; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), 250u);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), 251u);
}

TEST(ThreadPool, WorkerIndexIsStableAndBounded) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::size_t> seen;
  for (int i = 0; i < 60; ++i) {
    pool.submit([&] {
      const std::size_t idx = ThreadPool::worker_index();
      std::scoped_lock lk(mu);
      seen.insert(idx);
    });
  }
  pool.wait_idle();
  EXPECT_LE(seen.size(), 3u);
  for (const auto idx : seen) EXPECT_LT(idx, 3u);
  EXPECT_EQ(ThreadPool::worker_index(), SIZE_MAX);  // non-pool thread
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

// ---- fork_join: a region joins its own lanes, nothing else --------------
// Waits are bounded, so a join that also waits for foreign work fails by
// timeout instead of hanging the suite.
constexpr auto kJoinTimeout = std::chrono::seconds(10);

TEST(ThreadPool, ForkJoinIgnoresForeignTasks) {
  ThreadPool pool(4);
  std::promise<void> gate;
  pool.submit([parked = gate.get_future().share()] { parked.wait(); });

  std::atomic<int> ran{0};
  auto region = std::async(std::launch::async, [&] {
    pool.fork_join(2, [&](std::size_t) { ran.fetch_add(1); });
  });
  const bool joined = region.wait_for(kJoinTimeout) == std::future_status::ready;
  gate.set_value();  // release the foreign task either way
  region.get();
  EXPECT_TRUE(joined) << "fork_join waited for a task it did not submit";
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ForkJoinSingleLaneRunsInlineBeforeCaller) {
  ThreadPool pool(2);
  const auto self = std::this_thread::get_id();
  std::vector<std::string> order;
  pool.fork_join(
      1,
      [&](std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back("lane");
      },
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back("caller");
      });
  EXPECT_EQ(order, (std::vector<std::string>{"lane", "caller"}));
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(ThreadPool, ForkJoinCallerRunsWhileLanesRun) {
  // Each lane waits for the caller's signal, and the caller waits until
  // every lane has started: both sides must be live at once.
  constexpr std::size_t kLanes = 3;
  ThreadPool pool(4);
  std::promise<void> go;
  const std::shared_future<void> signal = go.get_future().share();
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> saw_signal{0};
  std::set<std::size_t> lanes_seen;
  std::mutex mu;
  const auto self = std::this_thread::get_id();
  bool caller_saw_lanes = false;
  pool.fork_join(
      kLanes,
      [&](std::size_t lane) {
        EXPECT_NE(std::this_thread::get_id(), self);
        {
          std::scoped_lock lk(mu);
          lanes_seen.insert(lane);
        }
        started.fetch_add(1);
        if (signal.wait_for(kJoinTimeout) == std::future_status::ready)
          saw_signal.fetch_add(1);
      },
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        const auto deadline = std::chrono::steady_clock::now() + kJoinTimeout;
        while (started.load() < kLanes &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        caller_saw_lanes = started.load() == kLanes;
        go.set_value();
      });
  EXPECT_TRUE(caller_saw_lanes);
  EXPECT_EQ(saw_signal.load(), kLanes);
  EXPECT_EQ(lanes_seen, (std::set<std::size_t>{0, 1, 2}));
}

TEST(ThreadPool, ForkJoinRethrowsAfterEveryLaneReturns) {
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.fork_join(3,
                              [&](std::size_t lane) {
                                if (lane == 1)
                                  throw std::runtime_error("lane failed");
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(20));
                                finished.fetch_add(1);
                              }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);  // the join outlived the failure
}

// ---- fork_join's helping join: the caller runs unclaimed lanes ----------

// Runs `body` on one of `pool`'s workers and reports whether it returned
// within the join timeout (a deadlocked region fails instead of hanging).
bool completes_on_worker(ThreadPool& pool, std::function<void()> body) {
  std::promise<void> done;
  auto finished = done.get_future();
  pool.submit([&body, &done] {
    body();
    done.set_value();
  });
  return finished.wait_for(kJoinTimeout) == std::future_status::ready;
}

TEST(ThreadPool, NestedForkJoinFromTheOnlyWorkerCompletes) {
  // No other worker exists to run the lanes: the calling worker runs them.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_TRUE(completes_on_worker(pool, [&] {
    pool.fork_join(4, [&](std::size_t) {
      pool.fork_join(3, [&](std::size_t) { ran.fetch_add(1); });
    });
  }));
  EXPECT_EQ(ran.load(), 12);
}

TEST(ThreadPool, NestedRegionsOnASaturatedPoolComplete) {
  // Every worker runs a region whose lanes open regions of their own, and
  // the calling thread opens one more on top: no lane is ever left waiting
  // for a worker, because each region's caller helps.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto nested = [&] {
    pool.fork_join(3, [&](std::size_t) {
      pool.fork_join(3, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    });
  };
  std::vector<std::future<void>> regions;
  for (int r = 0; r < 4; ++r) {
    auto done = std::make_shared<std::promise<void>>();
    regions.push_back(done->get_future());
    pool.submit([nested, done] {
      nested();
      done->set_value();
    });
  }
  nested();
  for (auto& region : regions)
    EXPECT_EQ(region.wait_for(kJoinTimeout), std::future_status::ready);
  EXPECT_EQ(ran.load(), 5 * 9);
}

TEST(ThreadPool, ForkJoinRunsEveryLaneExactlyOnce) {
  constexpr std::size_t kLanes = 2000;
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(kLanes);
  const auto count = [&](std::size_t lane) { runs[lane].fetch_add(1); };
  pool.fork_join(kLanes, count);  // from a non-pool thread
  EXPECT_TRUE(
      completes_on_worker(pool, [&] { pool.fork_join(kLanes, count); }));
  for (std::size_t l = 0; l < kLanes; ++l)
    ASSERT_EQ(runs[l].load(), 2) << "lane " << l;
}

TEST(ThreadPool, ForkJoinRethrowsTheFirstErrorAfterEveryLaneReturns) {
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  try {
    pool.fork_join(6, [&](std::size_t lane) {
      if (lane == 0) throw std::runtime_error("first");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      if (lane == 5) throw std::logic_error("later");
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "fork_join swallowed the lanes' errors";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(finished.load(), 4);  // the join outlived both failures
}

TEST(ThreadPool, ForEachLaneRunsInOrderWithoutAPool) {
  std::vector<std::size_t> order;
  for_each_lane(nullptr, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  for_each_lane(&pool, 0, [&](std::size_t) { sum.fetch_add(1); });
  for_each_lane(&pool, 5, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10u);
}

TEST(WorkLedger, TracksPerWorkerClocks) {
  vtime::WorkLedger ledger(3);
  ledger.add(0, 100);
  ledger.add(1, 250);
  ledger.add(1, 50);
  ledger.add(2, 10);
  EXPECT_EQ(ledger.clock(0), 100u);
  EXPECT_EQ(ledger.clock(1), 300u);
  EXPECT_EQ(ledger.makespan(), 300u);
  EXPECT_EQ(ledger.total(), 410u);
  ledger.reset();
  EXPECT_EQ(ledger.total(), 0u);
}

TEST(WorkLedger, SpeedupHelper) {
  EXPECT_DOUBLE_EQ(vtime::speedup(1000, 250), 4.0);
  EXPECT_DOUBLE_EQ(vtime::speedup(1000, 0), 1.0);
}

}  // namespace
}  // namespace blockpilot

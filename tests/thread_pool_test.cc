#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.ParallelFor(kCount, {}, [&](int, int64_t index) {
    visits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> out_of_range{false};
  pool.ParallelFor(500, {}, [&](int worker, int64_t) {
    if (worker < 0 || worker >= 3) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(ThreadPoolTest, SingleThreadRunsEverythingOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  bool wrong_worker = false;
  int64_t sum = 0;
  pool.ParallelFor(100, {}, [&](int worker, int64_t index) {
    // Safe without synchronization: the serial fast path runs inline.
    if (worker != 0) wrong_worker = true;
    sum += index;
  });
  EXPECT_FALSE(wrong_worker);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(64, {}, [&](int, int64_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 63 * 64 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoops) {
  ThreadPool pool(2);
  int calls = 0;
  const ParallelForStats zero =
      pool.ParallelFor(0, {}, [&](int, int64_t) { ++calls; });
  const ParallelForStats negative =
      pool.ParallelFor(-5, {}, [&](int, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(zero.wall_seconds, 0.0);
  EXPECT_EQ(negative.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, StatsAreNonNegativeAndBusyCoversWork) {
  ThreadPool pool(2);
  std::atomic<int64_t> sink{0};
  const ParallelForStats stats =
      pool.ParallelFor(2000, {}, [&](int, int64_t i) {
        sink.fetch_add(i % 7, std::memory_order_relaxed);
      });
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(3, {}, [&](int, int64_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 3);
  // Two runs covering ten indices: six workers find nothing to claim.
  const std::vector<int64_t> runs = {0, 4};
  pool.ParallelFor(10, runs, [&](int, int64_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 13);
}

// Uneven runs (lengths 1..7, cycling) over a pool of 4. Each run's indices
// must land on one worker, in ascending order, one after another.
TEST(ThreadPoolTest, EachRunGoesToOneWorkerInAscendingOrder) {
  std::vector<int64_t> runs;
  int64_t count = 0;
  for (int r = 0; r < 200; ++r) {
    runs.push_back(count);
    count += 1 + r % 7;
  }
  ThreadPool pool(4);
  std::vector<int> owner(count, -1);
  std::vector<int64_t> order(count, -1);
  std::vector<int64_t> step(4, 0);  // per-worker sequence number
  pool.ParallelFor(count, runs, [&](int worker, int64_t index) {
    owner[index] = worker;  // each index is written by one worker only
    order[index] = step[worker]++;
  });
  for (size_t r = 0; r < runs.size(); ++r) {
    const int64_t end = r + 1 < runs.size() ? runs[r + 1] : count;
    for (int64_t i = runs[r] + 1; i < end; ++i) {
      EXPECT_EQ(owner[i], owner[runs[r]]) << "run " << r << " index " << i;
      EXPECT_EQ(order[i], order[i - 1] + 1) << "run " << r << " index " << i;
    }
  }
}

// A pool of 2 where whichever worker claims run 0 holds it until run 5 has
// started: meanwhile the other worker must claim runs 1..5, in that order.
// Dealing runs to workers up front would hand one worker 0, 2, 4 and fail.
TEST(ThreadPoolTest, RunsAreClaimedInAscendingOrder) {
  constexpr int64_t kRuns = 8;
  std::vector<int64_t> runs;
  for (int64_t r = 0; r < kRuns; ++r) runs.push_back(2 * r);
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int64_t> started;  // runs other than 0, in start order
  bool released = false;
  pool.ParallelFor(2 * kRuns, runs, [&](int, int64_t index) {
    if (index % 2 != 0) return;
    std::unique_lock<std::mutex> lock(mu);
    if (index == 0) {
      released = cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return started.size() >= 5; });
      return;
    }
    started.push_back(index / 2);
    cv.notify_all();
  });
  EXPECT_TRUE(released);
  ASSERT_GE(started.size(), 5u);
  EXPECT_EQ(std::vector<int64_t>(started.begin(), started.begin() + 5),
            (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, UnevenCostsVisitEveryIndexOnce) {
  constexpr int64_t kCount = 400;
  std::vector<int64_t> runs;
  for (int64_t i = 0; i < kCount; i += 1 + i % 5) runs.push_back(i);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(kCount);
  std::atomic<int64_t> sink{0};
  pool.ParallelFor(kCount, runs, [&](int, int64_t index) {
    // Every 16th index costs ~1000x the rest.
    const int64_t spins = index % 16 == 0 ? 200000 : 200;
    int64_t acc = 0;
    for (int64_t k = 0; k < spins; ++k) acc += k ^ index;
    sink.fetch_add(acc, std::memory_order_relaxed);
    visits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace tane

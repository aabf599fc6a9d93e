#include "src/vprof/worker_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vprof {
namespace {

class WorkerPoolTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (IsTracing()) {
      StopTracing();
    }
  }
};

TEST_F(WorkerPoolTest, TaskRunsOnBehalfOfItsIntervalWithCreatedByEdge) {
  StartTracing();
  std::atomic<IntervalId> seen{kNoInterval};
  WorkerPool<int> pool(1, 0, [&](IntervalId sid, int&) {
    seen.store(CurrentIntervalId());
    EXPECT_EQ(CurrentIntervalId(), sid);
    EndInterval(sid);
  });
  const ThreadId producer = CurrentThread()->tid();
  const IntervalId sid = BeginInterval();
  ASSERT_NE(sid, kNoInterval);
  ASSERT_TRUE(pool.Submit(sid, 1));
  WorkOnBehalf(kNoInterval);
  pool.Shutdown();
  const Trace trace = StopTracing();
  EXPECT_EQ(seen.load(), sid);

  int edges = 0;
  for (const ThreadTrace& thread : trace.threads) {
    for (const Segment& seg : thread.segments) {
      if (seg.generator_tid == kNoThread) {
        continue;
      }
      ++edges;
      EXPECT_EQ(thread.tid, pool.tids()[0]);
      EXPECT_EQ(seg.generator_tid, producer);
      EXPECT_EQ(seg.sid, sid) << "edge not on the relabeled segment";
    }
  }
  EXPECT_EQ(edges, 1);
  EXPECT_EQ(trace.interval_count(), 1u);  // the handler ended it
}

TEST_F(WorkerPoolTest, TaskFindingMaxDepthQueuedIsShedAndNeverRuns) {
  std::promise<void> parked;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::mutex mu;
  std::vector<int> ran;
  WorkerPool<int> pool(1, /*max_depth=*/1, [&](IntervalId, int& task) {
    if (task == 0) {
      parked.set_value();
      released.wait();
    }
    std::lock_guard<std::mutex> lock(mu);
    ran.push_back(task);
  });
  ASSERT_TRUE(pool.Submit(kNoInterval, 0));
  parked.get_future().wait();  // the worker holds task 0; the queue is empty
  EXPECT_TRUE(pool.Submit(kNoInterval, 1));
  EXPECT_EQ(pool.depth(), 1u);
  EXPECT_FALSE(pool.Submit(kNoInterval, 2));
  EXPECT_FALSE(pool.SubmitAndWait(3));  // shed at once, no wait
  release.set_value();
  pool.Shutdown();
  EXPECT_EQ(ran, (std::vector<int>{0, 1}));
}

TEST_F(WorkerPoolTest, ShutdownRunsEveryQueuedTaskBeforeJoining) {
  std::promise<void> parked;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> ran{0};
  WorkerPool<int> pool(1, 0, [&](IntervalId, int& task) {
    if (task == 0) {
      parked.set_value();
      released.wait();
    }
    ran.fetch_add(1);
  });
  ASSERT_TRUE(pool.Submit(kNoInterval, 0));
  parked.get_future().wait();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(pool.Submit(kNoInterval, i));
  }
  // Released only after Shutdown has closed the queue on five tasks.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
  });
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 6);
  pool.Shutdown();  // idempotent
  releaser.join();
}

TEST_F(WorkerPoolTest, SubmitAfterShutdownIsShed) {
  std::atomic<int> ran{0};
  WorkerPool<int> pool(1, 0, [&](IntervalId, int&) { ran.fetch_add(1); });
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit(kNoInterval, 1));
  EXPECT_EQ(pool.depth(), 0u);
  EXPECT_EQ(ran.load(), 0);
}

TEST_F(WorkerPoolTest, SubmitAndWaitAfterShutdownIsShedWithoutWaiting) {
  StartTracing();
  std::atomic<int> ran{0};
  WorkerPool<int> pool(1, 0, [&](IntervalId, int&) { ran.fetch_add(1); });
  pool.Shutdown();
  EXPECT_FALSE(pool.SubmitAndWait(1));  // returns: nothing is left to wait on
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), 1u);  // the short rejection is still seen
  EXPECT_EQ(ran.load(), 0);
}

TEST_F(WorkerPoolTest, RosterListsEveryWorker) {
  constexpr int kWorkers = 3;
  std::latch all_running(kWorkers);
  std::mutex mu;
  std::set<ThreadId> ran_on;
  WorkerPool<int> pool(kWorkers, 0, [&](IntervalId, int&) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ran_on.insert(CurrentThread()->tid());
    }
    all_running.arrive_and_wait();  // one task per worker, all at once
  });
  ASSERT_EQ(pool.tids().size(), static_cast<size_t>(kWorkers));
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_TRUE(pool.Submit(kNoInterval, i));
  }
  pool.Shutdown();
  const std::set<ThreadId> roster(pool.tids().begin(), pool.tids().end());
  EXPECT_EQ(roster.size(), static_cast<size_t>(kWorkers));
  EXPECT_EQ(roster.count(kNoThread), 0u);
  EXPECT_EQ(ran_on, roster);
}

TEST_F(WorkerPoolTest, SubmitAndWaitReturnsAfterHandlerAndEndsInterval) {
  StartTracing();
  std::atomic<bool> ran{false};
  std::atomic<IntervalId> seen{kNoInterval};
  WorkerPool<int> pool(2, 0, [&](IntervalId sid, int&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    seen.store(sid);
    ran.store(true);
  });
  EXPECT_TRUE(pool.SubmitAndWait(7));
  EXPECT_TRUE(ran.load());
  EXPECT_NE(seen.load(), kNoInterval);
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);  // the interval is over
  const ThreadId caller = CurrentThread()->tid();
  pool.Shutdown();
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), 1u);
  for (const ThreadTrace& thread : trace.threads) {
    for (const IntervalEvent& event : thread.interval_events) {
      EXPECT_EQ(event.sid, seen.load());
      EXPECT_EQ(thread.tid, caller) << "begun and ended by the submitter";
    }
  }
}

}  // namespace
}  // namespace vprof

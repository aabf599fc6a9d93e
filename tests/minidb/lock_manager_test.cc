#include "src/minidb/lock_manager.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/minidb/transaction.h"
#include "src/simio/disk.h"
#include "src/vprof/runtime.h"

namespace minidb {
namespace {

TEST(LockManagerTest, SharedLocksCompatible) {
  LockManager lm(LockScheduling::kFcfs);
  Transaction t1(1, 100);
  Transaction t2(2, 200);
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kShared));
  EXPECT_TRUE(lm.Lock(&t2, 7, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(&t1, 7, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(&t2, 7, LockMode::kShared));
  lm.ReleaseAll(&t1);
  lm.ReleaseAll(&t2);
  EXPECT_EQ(lm.ActiveObjects(), 0u);
}

TEST(LockManagerTest, ReentrantAcquisition) {
  LockManager lm(LockScheduling::kFcfs);
  Transaction t1(1, 100);
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kExclusive));
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kExclusive));
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kShared));  // weaker: no-op
  lm.ReleaseAll(&t1);
  EXPECT_EQ(lm.ActiveObjects(), 0u);
}

TEST(LockManagerTest, SoleHolderUpgrades) {
  LockManager lm(LockScheduling::kFcfs);
  Transaction t1(1, 100);
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kShared));
  EXPECT_TRUE(lm.Lock(&t1, 7, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(&t1, 7, LockMode::kExclusive));
  EXPECT_EQ(lm.stats().upgrades, 1u);
  lm.ReleaseAll(&t1);
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm(LockScheduling::kFcfs);
  Transaction holder(1, 100);
  ASSERT_TRUE(lm.Lock(&holder, 9, LockMode::kExclusive));
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Transaction t2(2, 200);
    EXPECT_TRUE(lm.Lock(&t2, 9, LockMode::kExclusive));
    acquired.store(true);
    lm.ReleaseAll(&t2);
  });
  simio::SleepUs(10000);
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(&holder);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(lm.stats().waits, 1u);
}

TEST(LockManagerTest, WaitSpanningATracingRotationIsNotWrapped) {
  // StartTracing re-anchors the profiler's fast clock to zero. A lock wait
  // that spans a rotation (as vprofd's harvester makes them every epoch)
  // must still add its true duration, not a wrapped negative one.
  LockManager lm(LockScheduling::kFcfs);
  Transaction holder(1, 100);
  ASSERT_TRUE(lm.Lock(&holder, 9, LockMode::kExclusive));
  simio::SleepUs(20000);  // the fast clock now reads well past zero
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&] {
    Transaction t2(2, 200);
    EXPECT_TRUE(lm.Lock(&t2, 9, LockMode::kExclusive));
    lm.ReleaseAll(&t2);
  });
  while (lm.stats().waits == 0) {
    std::this_thread::yield();
  }
  vprof::StartTracing();
  (void)vprof::StopTracing();
  lm.ReleaseAll(&holder);
  waiter.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GT(lm.stats().wait_ns, 0u);
  EXPECT_LE(lm.stats().wait_ns, static_cast<uint64_t>(elapsed.count()));
}

TEST(LockManagerTest, TimeoutReturnsFalse) {
  LockManager lm(LockScheduling::kFcfs, /*wait_timeout_ns=*/20LL * 1000 * 1000);
  Transaction holder(1, 100);
  ASSERT_TRUE(lm.Lock(&holder, 9, LockMode::kExclusive));
  Transaction t2(2, 200);
  EXPECT_FALSE(lm.Lock(&t2, 9, LockMode::kExclusive));
  EXPECT_EQ(lm.stats().timeouts, 1u);
  lm.ReleaseAll(&holder);
  lm.ReleaseAll(&t2);
}

// Grant-order tests: a holder plus several sleeping waiters; on release the
// policy decides who gets the lock.
std::vector<uint64_t> GrantOrder(LockScheduling scheduling,
                                 const std::vector<int64_t>& waiter_ages) {
  LockManager lm(scheduling);
  Transaction holder(100, 1);
  EXPECT_TRUE(lm.Lock(&holder, 5, LockMode::kExclusive));

  std::vector<uint64_t> order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (size_t i = 0; i < waiter_ages.size(); ++i) {
    waiters.emplace_back([&, i] {
      Transaction trx(static_cast<uint64_t>(i + 1), waiter_ages[i]);
      EXPECT_TRUE(lm.Lock(&trx, 5, LockMode::kExclusive));
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(trx.id());
      }
      simio::SleepUs(2000);  // hold briefly so grants stay ordered
      lm.ReleaseAll(&trx);
    });
    simio::SleepUs(5000);  // enforce arrival order
  }
  simio::SleepUs(5000);
  lm.ReleaseAll(&holder);
  for (auto& w : waiters) {
    w.join();
  }
  return order;
}

TEST(LockManagerTest, FcfsGrantsInArrivalOrder) {
  // Arrival order 1,2,3 with ages 300,200,100: FCFS ignores age.
  const auto order = GrantOrder(LockScheduling::kFcfs, {300, 200, 100});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
}

TEST(LockManagerTest, VatsGrantsOldestFirst) {
  // Same arrival order, but VATS grants the oldest (smallest start ts).
  const auto order = GrantOrder(LockScheduling::kVats, {300, 200, 100});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3u);  // age 100: oldest
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 1u);
}

TEST(LockManagerTest, SharedWaitersGrantedTogether) {
  LockManager lm(LockScheduling::kFcfs);
  Transaction holder(1, 1);
  ASSERT_TRUE(lm.Lock(&holder, 5, LockMode::kExclusive));
  std::atomic<int> granted{0};
  std::atomic<int> held_together{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&, i] {
      Transaction trx(static_cast<uint64_t>(i + 2), 100 + i);
      EXPECT_TRUE(lm.Lock(&trx, 5, LockMode::kShared));
      granted.fetch_add(1);
      // Hold the lock until all three readers hold it. Grants made one at a
      // time never get there: the wait runs out with the others still
      // queued behind this reader.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (granted.load() < 3 && std::chrono::steady_clock::now() < deadline) {
        simio::SleepUs(100);
      }
      if (granted.load() == 3) {
        held_together.fetch_add(1);
      }
      lm.ReleaseAll(&trx);
    });
  }
  simio::SleepUs(10000);
  EXPECT_EQ(granted.load(), 0);  // no reader gets past the holder
  lm.ReleaseAll(&holder);
  for (auto& r : readers) {
    r.join();
  }
  // All three shared waiters held the lock at once.
  EXPECT_EQ(held_together.load(), 3);
}

TEST(LockManagerTest, StressManyObjectsNoLostWakeups) {
  LockManager lm(LockScheduling::kVats);
  std::atomic<uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        Transaction trx(static_cast<uint64_t>(t * 1000 + i),
                        static_cast<int64_t>(t * 1000 + i));
        const uint64_t object = static_cast<uint64_t>(i % 7);
        ASSERT_TRUE(lm.Lock(&trx, object, LockMode::kExclusive));
        acquisitions.fetch_add(1);
        lm.ReleaseAll(&trx);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(acquisitions.load(), 1200u);
  EXPECT_EQ(lm.ActiveObjects(), 0u);
}

}  // namespace
}  // namespace minidb

#include "src/vprof/sync.h"

#include <thread>

#include <gtest/gtest.h>

#include "src/simio/disk.h"

namespace vprof {
namespace {

class SyncTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (IsTracing()) {
      StopTracing();
    }
  }
};

TEST_F(SyncTest, OwnerStampPackUnpack) {
  // Thread ids are never reused, so they grow past 16 bits in a long run.
  for (const ThreadId tid : {0, 7, 32768, 65535, 70000}) {
    const OwnerStamp stamp = UnpackOwnerStamp(PackOwnerStamp(tid, 123456789));
    EXPECT_EQ(stamp.tid, tid);
    EXPECT_EQ(stamp.time, 123456789);
  }
  // A stamp that does not fit names no thread rather than a wrong one.
  for (const OwnerStamp& unfit : {OwnerStamp{1 << 30, 5},
                                  OwnerStamp{3, int64_t{1} << 50},
                                  OwnerStamp{3, -5}}) {
    EXPECT_EQ(UnpackOwnerStamp(PackOwnerStamp(unfit.tid, unfit.time)).tid,
              kNoThread);
  }
  EXPECT_EQ(UnpackOwnerStamp(0).tid, kNoThread);
}

TEST_F(SyncTest, MutexBasicExclusion) {
  Mutex mu;
  int counter = 0;
  std::thread threads[4];
  for (auto& t : threads) {
    t = std::thread([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<Mutex> lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST_F(SyncTest, ContendedMutexRecordsBlockedSegmentWithWakeEdge) {
  Mutex mu;
  StartTracing();
  CurrentThread();  // ensure the main thread is registered
  Event holder_has_lock;
  std::thread holder([&] {
    mu.lock();
    holder_has_lock.Set();
    simio::SleepUs(20000);  // hold long enough to force contention
    mu.unlock();
  });
  holder_has_lock.Wait();
  mu.lock();  // must block, then record a wake-up edge to the holder
  mu.unlock();
  holder.join();
  const Trace trace = StopTracing();
  bool found_long_blocked_with_edge = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      if (seg.state == SegmentState::kBlocked && seg.waker_tid != kNoThread) {
        EXPECT_NE(seg.waker_tid, t.tid);
        if (seg.end - seg.start > 1000000) {  // the ~20ms lock wait
          found_long_blocked_with_edge = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_long_blocked_with_edge);
}

TEST_F(SyncTest, EventWakeEdgePointsAtSetter) {
  StartTracing();
  CurrentThread();
  Event event;
  ThreadId setter_tid = kNoThread;
  std::thread setter([&] {
    simio::SleepUs(15000);
    setter_tid = CurrentThread()->tid();
    event.Set();
  });
  event.Wait();
  setter.join();
  const Trace trace = StopTracing();
  bool found = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      if (seg.state == SegmentState::kBlocked &&
          seg.waker_tid == setter_tid && setter_tid != kNoThread) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SyncTest, EventSetBeforeWaitDoesNotBlock) {
  Event event;
  event.Set();
  event.Wait();  // returns immediately
  event.Reset();
  EXPECT_FALSE(event.IsSet());
  event.Set();
  EXPECT_TRUE(event.IsSet());
}

TEST_F(SyncTest, CondVarPredicateWait) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    simio::SleepUs(5000);
    {
      std::lock_guard<Mutex> lock(mu);
      ready = true;
    }
    cv.NotifyAll();
  });
  {
    std::lock_guard<Mutex> lock(mu);
    cv.Wait(mu, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  signaler.join();
}

TEST_F(SyncTest, UncontendedLockRecordsNothing) {
  StartTracing();
  Mutex mu;
  {
    std::lock_guard<Mutex> lock(mu);
  }
  const Trace trace = StopTracing();
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      EXPECT_NE(seg.state, SegmentState::kBlocked);
    }
  }
}

}  // namespace
}  // namespace vprof

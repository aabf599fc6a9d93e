// Timed waits, annotation no-ops outside tracing, probe depth limits, and
// other edge cases of the runtime and synchronization layer.
#include <thread>

#include <gtest/gtest.h>

#include "src/simio/disk.h"
#include "src/vprof/probe.h"
#include "src/vprof/sync.h"

namespace vprof {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (IsTracing()) {
      StopTracing();
    }
    DisableAllFunctions();
  }
};

TEST_F(EdgeCaseTest, EventWaitForTimesOut) {
  Event event;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(event.WaitFor(5LL * 1000 * 1000));  // 5ms
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 4);
}

TEST_F(EdgeCaseTest, EventWaitForSucceedsWhenSet) {
  Event event;
  std::thread setter([&] {
    simio::SleepUs(3000);
    event.Set();
  });
  EXPECT_TRUE(event.WaitFor(2000LL * 1000 * 1000));
  setter.join();
}

TEST_F(EdgeCaseTest, EventWaitForImmediateWhenAlreadySet) {
  Event event;
  event.Set();
  EXPECT_TRUE(event.WaitFor(1));
}

TEST_F(EdgeCaseTest, CondVarWaitForTimesOutUnderTracing) {
  StartTracing();
  Mutex mu;
  CondVar cv;
  std::lock_guard<Mutex> lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, 3LL * 1000 * 1000));
  const Trace trace = StopTracing();
  // The timed-out wait produced a blocked segment without a waker.
  bool found = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      if (seg.state == SegmentState::kBlocked && seg.waker_tid == kNoThread) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EdgeCaseTest, AnnotationsAreNoOpsWhenNotTracing) {
  EXPECT_EQ(BeginInterval(), kNoInterval);
  EndInterval(7);     // must not crash
  WorkOnBehalf(7);    // must not crash
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);
}

TEST_F(EdgeCaseTest, DeepRecursionBeyondProbeStackIsSafe) {
  const FuncId fid = RegisterFunction("edge_deep");
  SetFunctionEnabled(fid, true);
  StartTracing();
  // Recurse beyond kMaxProbeDepth: records beyond the stack limit lose their
  // parent link, but nothing crashes and times stay sane.
  std::function<void(int)> recurse = [&](int depth) {
    ScopedProbe probe(fid);
    if (depth > 0) {
      recurse(depth - 1);
    }
  };
  recurse(kMaxProbeDepth + 50);
  const Trace trace = StopTracing();
  uint64_t count = 0;
  for (const ThreadTrace& t : trace.threads) {
    for (const Invocation& inv : t.invocations) {
      EXPECT_GE(inv.end, inv.start);
      ++count;
    }
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kMaxProbeDepth) + 51);
}

TEST_F(EdgeCaseTest, ManyThreadsManyIntervalsAllRecorded) {
  StartTracing();
  constexpr int kThreads = 6;
  constexpr int kIntervalsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIntervalsPerThread; ++i) {
        const IntervalId sid = BeginInterval();
        simio::SleepUs(50);
        EndInterval(sid);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), kThreads * kIntervalsPerThread);
  // Interval ids are globally unique.
  std::set<IntervalId> sids;
  for (const ThreadTrace& t : trace.threads) {
    for (const IntervalEvent& e : t.interval_events) {
      if (e.kind == IntervalEventKind::kBegin) {
        EXPECT_TRUE(sids.insert(e.sid).second);
      }
    }
  }
}

TEST_F(EdgeCaseTest, BackToBackTracingRunsIsolated) {
  const FuncId fid = RegisterFunction("edge_runs");
  SetFunctionEnabled(fid, true);
  StartTracing();
  {
    ScopedProbe probe(fid);
  }
  const Trace first = StopTracing();
  StartTracing();
  const Trace second = StopTracing();
  EXPECT_EQ(first.invocation_count(), 1u);
  EXPECT_EQ(second.invocation_count(), 0u);
}

}  // namespace
}  // namespace vprof

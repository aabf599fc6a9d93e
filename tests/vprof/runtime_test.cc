#include "src/vprof/runtime.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/vprof/probe.h"
#include "src/vprof/registry.h"

namespace vprof {
namespace {

void InstrumentedLeaf() {
  VPROF_FUNC("rt_leaf");
}

void InstrumentedParent() {
  VPROF_FUNC("rt_parent");
  InstrumentedLeaf();
  InstrumentedLeaf();
}

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { DisableAllFunctions(); }
  void TearDown() override {
    if (IsTracing()) {
      StopTracing();
    }
    DisableAllFunctions();
  }
};

TEST_F(RuntimeTest, NoRecordsWhenNotTracing) {
  InstrumentedParent();
  StartTracing();
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.invocation_count(), 0u);
}

TEST_F(RuntimeTest, DisabledFunctionsNotRecorded) {
  SetFunctionEnabled(RegisterFunction("rt_parent"), true);
  StartTracing();
  InstrumentedParent();
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.invocation_count(), 1u);  // leaf disabled
}

TEST_F(RuntimeTest, ParentChildLinkage) {
  SetFunctionEnabled(RegisterFunction("rt_parent"), true);
  SetFunctionEnabled(RegisterFunction("rt_leaf"), true);
  StartTracing();
  InstrumentedParent();
  const Trace trace = StopTracing();
  ASSERT_EQ(trace.invocation_count(), 3u);
  const ThreadTrace* mine = nullptr;
  for (const ThreadTrace& t : trace.threads) {
    if (!t.invocations.empty()) {
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  const FuncId parent_id = RegisterFunction("rt_parent");
  const FuncId leaf_id = RegisterFunction("rt_leaf");
  int leafs_under_parent = 0;
  for (const Invocation& inv : mine->invocations) {
    if (inv.func == leaf_id) {
      ASSERT_GE(inv.parent, 0);
      EXPECT_EQ(mine->invocations[static_cast<size_t>(inv.parent)].func, parent_id);
      ++leafs_under_parent;
    } else {
      EXPECT_EQ(inv.func, parent_id);
      EXPECT_EQ(inv.parent, -1);
    }
    EXPECT_GE(inv.end, inv.start);
  }
  EXPECT_EQ(leafs_under_parent, 2);
}

TEST_F(RuntimeTest, IntervalBeginEndRecorded) {
  StartTracing();
  const IntervalId sid = BeginInterval();
  EXPECT_NE(sid, kNoInterval);
  EXPECT_EQ(CurrentIntervalId(), sid);
  EndInterval(sid);
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), 1u);
}

TEST_F(RuntimeTest, IntervalIdsAreUnique) {
  StartTracing();
  const IntervalId a = BeginInterval();
  EndInterval(a);
  const IntervalId b = BeginInterval();
  EndInterval(b);
  EXPECT_NE(a, b);
  StopTracing();
}

TEST_F(RuntimeTest, InvocationsLabeledWithCurrentInterval) {
  SetFunctionEnabled(RegisterFunction("rt_parent"), true);
  StartTracing();
  const IntervalId sid = BeginInterval();
  InstrumentedParent();
  EndInterval(sid);
  const Trace trace = StopTracing();
  bool found = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const Invocation& inv : t.invocations) {
      EXPECT_EQ(inv.sid, sid);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RuntimeTest, SegmentsSplitOnIntervalSwitch) {
  StartTracing();
  const IntervalId sid = BeginInterval();
  InstrumentedParent();  // forces a segment to exist
  EndInterval(sid);
  const Trace trace = StopTracing();
  int labeled = 0;
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      EXPECT_LE(seg.start, seg.end);
      if (seg.sid == sid) {
        ++labeled;
      }
    }
  }
  EXPECT_GE(labeled, 1);
}

TEST_F(RuntimeTest, WorkOnBehalfRelabelsThread) {
  StartTracing();
  WorkOnBehalf(42);
  EXPECT_EQ(CurrentIntervalId(), 42u);
  WorkOnBehalf(kNoInterval);
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);
  StopTracing();
}

TEST_F(RuntimeTest, StopClampsOpenInvocations) {
  SetFunctionEnabled(RegisterFunction("rt_open"), true);
  StartTracing();
  {
    VPROF_FUNC("rt_open");
    const Trace trace = StopTracing();
    bool found = false;
    for (const ThreadTrace& t : trace.threads) {
      for (const Invocation& inv : t.invocations) {
        EXPECT_GE(inv.end, inv.start);
        found = true;
      }
    }
    EXPECT_TRUE(found);
    // Probe destructor runs after StopTracing: epoch guard must ignore it.
    StartTracing();
  }
  StopTracing();
}

TEST_F(RuntimeTest, TraceTimesAreRunRelative) {
  StartTracing();
  SetFunctionEnabled(RegisterFunction("rt_parent"), true);
  InstrumentedParent();
  const Trace trace = StopTracing();
  for (const ThreadTrace& t : trace.threads) {
    for (const Invocation& inv : t.invocations) {
      EXPECT_GE(inv.start, 0);
      EXPECT_LE(inv.end, trace.duration);
    }
  }
}

TEST_F(RuntimeTest, IntervalScopeBeginsAndEnds) {
  StartTracing();
  {
    IntervalScope scope(/*label=*/3);
    EXPECT_NE(scope.id(), kNoInterval);
    EXPECT_EQ(CurrentIntervalId(), scope.id());
  }
  EXPECT_EQ(CurrentIntervalId(), kNoInterval);
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), 1u);
  bool found_label = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const IntervalEvent& e : t.interval_events) {
      if (e.kind == IntervalEventKind::kBegin) {
        EXPECT_EQ(e.label, 3u);
        found_label = true;
      }
    }
  }
  EXPECT_TRUE(found_label);
}

TEST_F(RuntimeTest, IntervalScopeJoinsEnclosingInterval) {
  StartTracing();
  const IntervalId outer = BeginInterval();
  {
    IntervalScope inner;
    EXPECT_EQ(inner.id(), kNoInterval);  // joined, not created
    EXPECT_EQ(CurrentIntervalId(), outer);
  }
  EXPECT_EQ(CurrentIntervalId(), outer);  // not ended by the inner scope
  EndInterval(outer);
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.interval_count(), 1u);
}

void DeepNest(int remaining) {
  VPROF_FUNC("rt_deep");
  if (remaining > 0) {
    DeepNest(remaining - 1);
  }
}

TEST_F(RuntimeTest, NestingBeyondMaxProbeDepthIsSafe) {
  // Regression: the parent lookup used to read stack_[depth_ - 1] past the
  // frame array once depth_ exceeded kMaxProbeDepth.
  SetFunctionEnabled(RegisterFunction("rt_deep"), true);
  StartTracing();
  const int kCalls = kMaxProbeDepth + 32;
  DeepNest(kCalls - 1);
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.invocation_count(), static_cast<uint64_t>(kCalls));
  for (const ThreadTrace& t : trace.threads) {
    for (size_t i = 0; i < t.invocations.size(); ++i) {
      const Invocation& inv = t.invocations[i];
      EXPECT_GE(inv.end, inv.start);
      // Parents must reference an earlier, in-bounds record; frames deeper
      // than the stack clamp to the deepest tracked ancestor.
      EXPECT_GE(inv.parent, -1);
      EXPECT_LT(inv.parent, static_cast<int32_t>(i));
    }
  }
}

void CappedLeaf() {
  VPROF_FUNC("rt_capped");
}

TEST_F(RuntimeTest, ArenaCapDropsAndCountsOverflow) {
  SetFunctionEnabled(RegisterFunction("rt_capped"), true);
  SetArenaRecordCap(16);
  StartTracing();
  for (int i = 0; i < 200; ++i) {
    CappedLeaf();
  }
  const Trace trace = StopTracing();
  EXPECT_EQ(trace.invocation_count(), 16u);
  EXPECT_GE(trace.dropped_record_count(), 184u);
  // Dropped records must never be linked to: every stored parent index is
  // in bounds.
  for (const ThreadTrace& t : trace.threads) {
    for (const Invocation& inv : t.invocations) {
      EXPECT_GE(inv.parent, -1);
      EXPECT_LT(inv.parent, static_cast<int32_t>(t.invocations.size()));
    }
  }
  // Lifting the cap restores unbounded recording on the next run.
  SetArenaRecordCap(0);
  StartTracing();
  for (int i = 0; i < 20; ++i) {
    CappedLeaf();
  }
  const Trace uncapped = StopTracing();
  EXPECT_EQ(uncapped.invocation_count(), 20u);
  EXPECT_EQ(uncapped.dropped_record_count(), 0u);
}

TEST_F(RuntimeTest, StopTracingBoundedWhenProbeWedges) {
  fault::DeactivateAll();
  fault::ResetCounters();
  SetFunctionEnabled(RegisterFunction("rt_wedge"), true);
  SetQuiesceTimeoutNs(50'000'000);  // 50 ms bound for the test
  StartTracing();
  fault::Activate("vprof/probe_wedge", fault::Trigger::OneShot());
  std::thread victim([] {
    VPROF_FUNC("rt_wedge");  // wedges inside the probe's op window
  });
  while (fault::TriggerCount("vprof/probe_wedge") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Trace trace = StopTracing();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Without the bound this would hang forever on the wedged thread.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ASSERT_EQ(trace.stuck_threads.size(), 1u);
  fault::Deactivate("vprof/probe_wedge");  // releases the victim
  victim.join();
  // Recovery: the next run finds the thread quiescent, clears the
  // quarantine, and records it normally again.
  SetFunctionEnabled(RegisterFunction("rt_wedge"), true);
  StartTracing();
  std::thread healthy([] {
    VPROF_FUNC("rt_wedge");
  });
  healthy.join();
  const Trace recovered = StopTracing();
  EXPECT_TRUE(recovered.stuck_threads.empty());
  EXPECT_GE(recovered.invocation_count(), 1u);
  SetQuiesceTimeoutNs(0);  // restore the default bound
  fault::DeactivateAll();
  fault::ResetCounters();
}

// Fires a probe from a thread_local destructor, which runs while its
// thread exits.
struct ProbeAtThreadExit {
  ~ProbeAtThreadExit() { InstrumentedLeaf(); }
};

TEST_F(RuntimeTest, ExitedThreadIsCollectedThenFreed) {
  SetFunctionEnabled(RegisterFunction("rt_parent"), true);
  SetFunctionEnabled(RegisterFunction("rt_leaf"), true);
  CurrentThread();
  StartTracing();
  const size_t states = ThreadStateCount();
  ThreadId exited = kNoThread;
  std::thread([&exited] {
    // Constructed before this thread's state, so destroyed after any
    // thread_local the runtime could tie the state's lifetime to.
    thread_local ProbeAtThreadExit probe_at_exit;
    (void)probe_at_exit;
    InstrumentedParent();
    exited = CurrentThread()->tid();
  }).join();
  EXPECT_EQ(ThreadStateCount(), states + 1);

  const Trace trace = StopTracing();
  const ThreadTrace* recorded = nullptr;
  for (const ThreadTrace& t : trace.threads) {
    if (t.tid == exited) {
      recorded = &t;
    }
  }
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->invocations.size(), 4u);  // the last from its exit

  StartTracing();
  EXPECT_EQ(ThreadStateCount(), states);
  ThreadId fresh = kNoThread;
  std::thread([&fresh] { fresh = CurrentThread()->tid(); }).join();
  EXPECT_GT(fresh, exited);
}

TEST_F(RuntimeTest, FullTraceModeRecordsEverything) {
  // No functions enabled, but full-trace mode captures all probes.
  EnableFullTrace(true);
  StartTracing();
  InstrumentedParent();
  InstrumentedParent();
  StopTracing();
  EnableFullTrace(false);
  const FullTraceStats stats = GetFullTracerStats();
  EXPECT_EQ(stats.events, 12u);  // 2 calls x 3 functions x entry+exit
  EXPECT_EQ(stats.distinct_functions, 2u);
}

}  // namespace
}  // namespace vprof

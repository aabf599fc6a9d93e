// DistMonitor's merged factor ranking on hand-built tier traces: the front
// tier's call into a registered backend is ranked by the backend's own
// factors, not a second time as the caller's wait.
#include "src/dist/monitor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/vprof/service/online_tree.h"
#include "tests/vprof/trace_builder.h"

namespace dist {
namespace {

using vprof_test::TraceBuilder;

// Per interval: mon:front spans mon:parse, then mon:rpc (the wait on the
// backend), then a 50 ns body tail.
vprof::Trace FrontTrace(const std::vector<vprof::TimeNs>& parse,
                        const std::vector<vprof::TimeNs>& rpc) {
  TraceBuilder tb;
  for (size_t i = 0; i < parse.size(); ++i) {
    const vprof::TimeNs base = static_cast<vprof::TimeNs>(i) * 100000;
    const vprof::TimeNs rpc_start = base + parse[i];
    const vprof::TimeNs rpc_end = rpc_start + rpc[i];
    const vprof::TimeNs end = rpc_end + 50;
    const vprof::IntervalId sid = static_cast<vprof::IntervalId>(i + 1);
    tb.Begin(0, sid, base).End(0, sid, end);
    tb.Exec(0, sid, base, end);
    const int root = tb.Invoke(0, "mon:front", base, end, -1, sid);
    tb.Invoke(0, "mon:parse", base, rpc_start, root, sid);
    tb.Invoke(0, "mon:rpc", rpc_start, rpc_end, root, sid);
  }
  return tb.Build();
}

// Per interval: mon:backend spans mon:lock, then a 100 ns body tail.
vprof::Trace BackendTrace(const std::vector<vprof::TimeNs>& lock) {
  TraceBuilder tb;
  for (size_t i = 0; i < lock.size(); ++i) {
    const vprof::TimeNs base = static_cast<vprof::TimeNs>(i) * 100000;
    const vprof::TimeNs end = base + lock[i] + 100;
    const vprof::IntervalId sid = static_cast<vprof::IntervalId>(i + 1);
    tb.Begin(1, sid, base).End(1, sid, end);
    tb.Exec(1, sid, base, end);
    const int root = tb.Invoke(1, "mon:backend", base, end, -1, sid);
    tb.Invoke(1, "mon:lock", base, base + lock[i], root, sid);
  }
  return tb.Build();
}

class DistMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_.AddEdge("mon:front", "mon:parse");
    graph_.AddEdge("mon:front", "mon:rpc");
    graph_.AddEdge("mon:rpc", "mon:backend");
    graph_.AddEdge("mon:backend", "mon:lock");
    TierConfig front;
    front.name = "front";
    front.is_front = true;
    front.root = vprof::RegisterFunction("mon:front");
    monitor_.RegisterTier(front);
    TierConfig backend;
    backend.name = "backend";
    backend.root = vprof::RegisterFunction("mon:backend");
    monitor_.RegisterTier(backend);

    vprof::OnlineVarianceTree front_tree;
    front_tree.Fold(FrontTrace({100, 300, 200, 400}, {1000, 3000, 1500, 4000}));
    monitor_.UpdateTier("front", front_tree.Snapshot());
  }

  void UpdateBackend() {
    vprof::OnlineVarianceTree backend_tree;
    backend_tree.Fold(BackendTrace({800, 2700, 1300, 3600}));
    monitor_.UpdateTier("backend", backend_tree.Snapshot());
  }

  static bool Names(const DistFactor& df, const std::string& func) {
    const vprof::FuncId id = vprof::RegisterFunction(func);
    return df.factor.func_a == id || df.factor.func_b == id;
  }

  static bool Ranks(const std::vector<DistFactor>& factors,
                    const std::string& tier, const std::string& func) {
    for (const DistFactor& df : factors) {
      if (df.tier == tier && Names(df, func)) {
        return true;
      }
    }
    return false;
  }

  vprof::CallGraph graph_;
  DistMonitor monitor_;
};

TEST_F(DistMonitorTest, CallIntoRankedTierIsLeftToTheCalleesFactors) {
  UpdateBackend();
  const std::vector<DistFactor> factors = monitor_.TopFactors(graph_, 100);
  ASSERT_EQ(monitor_.Snapshot().tiers.size(), 2u);
  EXPECT_GT(monitor_.Snapshot().tiers[1].share, 0.0);
  for (const DistFactor& df : factors) {
    EXPECT_FALSE(Names(df, "mon:rpc"))
        << "the backend's time counted twice: as the caller's rpc wait in "
        << df.tier;
  }
  EXPECT_TRUE(Ranks(factors, "front", "mon:parse"));
  EXPECT_TRUE(Ranks(factors, "backend", "mon:lock"));
}

TEST_F(DistMonitorTest, CallIntoTierWithoutSnapshotStaysRanked) {
  // The backend is registered but has reported nothing: the caller's wait
  // is the only view of it.
  const std::vector<DistFactor> factors = monitor_.TopFactors(graph_, 100);
  EXPECT_TRUE(Ranks(factors, "front", "mon:rpc"));
  EXPECT_TRUE(Ranks(factors, "front", "mon:parse"));
  EXPECT_FALSE(Ranks(factors, "backend", "mon:lock"));
}

}  // namespace
}  // namespace dist

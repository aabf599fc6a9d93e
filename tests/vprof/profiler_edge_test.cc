// Edge behavior of the refinement driver: iteration caps, covariance-driven
// workloads, instrumentation bookkeeping, and report stability.
#include <sys/prctl.h>

#include <gtest/gtest.h>

#include "src/simio/disk.h"
#include "src/statkit/rng.h"
#include "src/vprof/analysis/profiler.h"
#include "src/vprof/probe.h"

namespace vprof {
namespace {

statkit::Rng g_rng(41);
bool g_slow_phase = false;

// Takes `us` on the fast clock: sleeps, with no timer slack, until
// kSpinTailUs before the set time, then spins until the set time has
// passed. A sleep alone overshoots by a varying amount, which dilutes the
// coupling the test sets; a spin alone is preempted for whole timeslices
// on a loaded host.
constexpr double kSpinTailUs = 50.0;

void RunForUs(double us) {
  const TimeNs until = Now() + static_cast<TimeNs>(us * 1000.0);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  simio::SleepUs(us - kSpinTailUs);
  while (Now() < until) {
  }
}

// App whose two children co-vary: a shared "system state" slows both.
void CoupledA() {
  VPROF_FUNC("pe_coupled_a");
  RunForUs(g_slow_phase ? 900.0 : 100.0);
}

void CoupledB() {
  VPROF_FUNC("pe_coupled_b");
  RunForUs(g_slow_phase ? 1100.0 : 120.0);
}

void CoupledRoot() {
  VPROF_FUNC("pe_root");
  const IntervalId sid = BeginInterval();
  g_slow_phase = g_rng.NextBool(0.3);
  CoupledA();
  CoupledB();
  EndInterval(sid);
}

CallGraph CoupledGraph() {
  CallGraph graph;
  graph.AddEdge("pe_root", "pe_coupled_a");
  graph.AddEdge("pe_root", "pe_coupled_b");
  return graph;
}

TEST(ProfilerEdgeTest, CovarianceFactorRanksHighForCoupledFunctions) {
  const CallGraph graph = CoupledGraph();
  Profiler profiler("pe_root", &graph, [] {
    for (int i = 0; i < 100; ++i) {
      CoupledRoot();
    }
  });
  const ProfileResult result = profiler.Run();
  const Factor* pair = nullptr;
  for (const Factor& factor : result.all_factors) {
    if (factor.is_covariance() &&
        factor.Label(result.function_names).find("pe_coupled") !=
            std::string::npos) {
      pair = &factor;
      break;
    }
  }
  ASSERT_NE(pair, nullptr);
  // 2*Cov(A,B) should carry a large share: both slow down in lockstep.
  EXPECT_GT(pair->contribution, 0.3);
}

TEST(ProfilerEdgeTest, MaxIterationsCapsRuns) {
  const CallGraph graph = CoupledGraph();
  Profiler profiler("pe_root", &graph, [] {
    for (int i = 0; i < 30; ++i) {
      CoupledRoot();
    }
  });
  ProfileOptions options;
  options.max_iterations = 1;
  const ProfileResult result = profiler.Run(options);
  EXPECT_EQ(result.runs, 1);
}

TEST(ProfilerEdgeTest, TracingDisabledAfterRun) {
  const CallGraph graph = CoupledGraph();
  Profiler profiler("pe_root", &graph, [] {
    for (int i = 0; i < 20; ++i) {
      CoupledRoot();
    }
  });
  profiler.Run();
  EXPECT_FALSE(IsTracing());
  EXPECT_TRUE(EnabledFunctions().empty());
}

TEST(ProfilerEdgeTest, UnknownRootYieldsEmptyProfileGracefully) {
  CallGraph graph;
  graph.AddFunction("pe_never_called");
  Profiler profiler("pe_never_called", &graph, [] {
    simio::SleepUs(100.0);  // workload with no intervals at all
  });
  const ProfileResult result = profiler.Run();
  EXPECT_TRUE(result.factors.empty());
  EXPECT_EQ(result.latencies_ns.size(), 0u);
  EXPECT_GE(result.runs, 1);
}

TEST(ProfilerEdgeTest, ReportIsNonEmptyEvenWithoutFactors) {
  CallGraph graph;
  graph.AddFunction("pe_never_called");
  Profiler profiler("pe_never_called", &graph, [] {});
  const ProfileResult result = profiler.Run();
  EXPECT_NE(result.Report().find("overall"), std::string::npos);
}

}  // namespace
}  // namespace vprof

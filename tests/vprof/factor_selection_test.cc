#include "src/vprof/analysis/factor_selection.h"

#include <gtest/gtest.h>

#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

// Two-level app: txn -> {fast, slow}; slow -> {leafwork}. `leafwork`
// carries all the variance; `slow` inherits it one level up.
Trace BuildNestedTrace() {
  TraceBuilder tb;
  const std::vector<TimeNs> leaf = {100, 900, 300, 1500, 600, 1200};
  for (size_t i = 0; i < leaf.size(); ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 100000;
    const IntervalId sid = static_cast<IntervalId>(i + 1);
    const TimeNs fast_end = base + 200;
    const TimeNs slow_end = fast_end + 50 + leaf[i];
    tb.Begin(0, sid, base).End(0, sid, slow_end);
    tb.Exec(0, sid, base, slow_end);
    const int txn = tb.Invoke(0, "txn", base, slow_end, -1, sid);
    tb.Invoke(0, "fast", base, fast_end, txn, sid);
    const int slow = tb.Invoke(0, "slow", fast_end, slow_end, txn, sid);
    tb.Invoke(0, "leafwork", fast_end + 50, slow_end, slow, sid);
  }
  return tb.Build();
}

CallGraph BuildNestedGraph() {
  CallGraph g;
  g.AddEdge("txn", "fast");
  g.AddEdge("txn", "slow");
  g.AddEdge("slow", "leafwork");
  return g;
}

TEST(CallGraphTest, HeightsAndChildren) {
  const CallGraph g = BuildNestedGraph();
  const FuncId txn = RegisterFunction("txn");
  const FuncId slow = RegisterFunction("slow");
  const FuncId leaf = RegisterFunction("leafwork");
  EXPECT_EQ(g.Height(txn), 2);
  EXPECT_EQ(g.Height(slow), 1);
  EXPECT_EQ(g.Height(leaf), 0);
  EXPECT_EQ(g.Children(txn).size(), 2u);
  EXPECT_TRUE(g.HasChildren(slow));
  EXPECT_FALSE(g.HasChildren(leaf));
}

TEST(CallGraphTest, RecursionDoesNotLoopForever) {
  CallGraph g;
  g.AddEdge("r", "r");
  g.AddEdge("r", "x");
  const FuncId r = RegisterFunction("r");
  EXPECT_GE(g.Height(r), 1);  // must terminate
}

TEST(FactorSelectionTest, SpecificityPrefersDeeperFunction) {
  // `slow` has slightly more total variance than `leafwork` (it adds its own
  // constant 50ns, so actually equal variance); specificity must rank
  // `leafwork` first because it sits lower in the call graph. This is the
  // WriteLog/CopyData intuition of paper Section 3.2.2.
  const Trace trace = BuildNestedTrace();
  const CallGraph graph = BuildNestedGraph();
  VarianceAnalysis va(trace);
  FactorSelectionOptions options;
  options.top_k = 2;
  options.min_contribution = 0.01;
  const auto selected =
      SelectFactors(va, graph, RegisterFunction("txn"), options);
  ASSERT_FALSE(selected.empty());
  EXPECT_EQ(selected[0].Label(trace.function_names), "leafwork");
}

TEST(FactorSelectionTest, ThresholdFiltersSmallFactors) {
  const Trace trace = BuildNestedTrace();
  const CallGraph graph = BuildNestedGraph();
  VarianceAnalysis va(trace);
  FactorSelectionOptions options;
  options.top_k = 10;
  options.min_contribution = 0.5;  // only dominant factors
  const auto selected =
      SelectFactors(va, graph, RegisterFunction("txn"), options);
  for (const Factor& f : selected) {
    EXPECT_GE(f.contribution, 0.5);
  }
  // `fast` (zero variance) must never be selected.
  for (const Factor& f : selected) {
    EXPECT_NE(f.Label(trace.function_names), "fast");
  }
}

TEST(FactorSelectionTest, TopKRespected) {
  const Trace trace = BuildNestedTrace();
  const CallGraph graph = BuildNestedGraph();
  VarianceAnalysis va(trace);
  FactorSelectionOptions options;
  options.top_k = 1;
  options.min_contribution = 0.0;
  const auto selected =
      SelectFactors(va, graph, RegisterFunction("txn"), options);
  EXPECT_EQ(selected.size(), 1u);
}

TEST(FactorSelectionTest, CovarianceFactorsDetectCoupledFunctions) {
  // Two siblings whose durations always move together: their covariance
  // factor must appear with roughly 2*Cov contribution (Apache-style
  // finding, paper Table 7).
  TraceBuilder tb;
  const std::vector<TimeNs> common = {100, 800, 300, 1200, 500, 900};
  for (size_t i = 0; i < common.size(); ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 100000;
    const IntervalId sid = static_cast<IntervalId>(i + 1);
    const TimeNs u_end = base + common[i];
    const TimeNs v_end = u_end + common[i];
    tb.Begin(0, sid, base).End(0, sid, v_end);
    tb.Exec(0, sid, base, v_end);
    const int txn = tb.Invoke(0, "txn", base, v_end, -1, sid);
    tb.Invoke(0, "u", base, u_end, txn, sid);
    tb.Invoke(0, "v", u_end, v_end, txn, sid);
  }
  const Trace trace = tb.Build();
  CallGraph graph;
  graph.AddEdge("txn", "u");
  graph.AddEdge("txn", "v");
  VarianceAnalysis va(trace);
  const auto all = AggregateFactors(va, graph, RegisterFunction("txn"),
                                    SpecificityKind::kQuadratic);
  const Factor* cov_factor = nullptr;
  for (const Factor& f : all) {
    if (f.is_covariance() && f.Label(trace.function_names).find("u") !=
                                 std::string::npos &&
        f.Label(trace.function_names).find("v") != std::string::npos) {
      cov_factor = &f;
    }
  }
  ASSERT_NE(cov_factor, nullptr);
  // Var(latency) = Var(2c) = 4 Var(c); Var(u)=Var(v)=Var(c);
  // 2Cov(u,v) = 2Var(c) -> contribution 0.5.
  EXPECT_NEAR(cov_factor->contribution, 0.5, 1e-6);
}

TEST(FactorSelectionTest, SpecificityKindsChangeOrdering) {
  // With linear specificity a shallow high-variance factor can outrank a
  // deep one; quadratic flips the order (Section 4.4 ablation behaviour).
  const Trace trace = BuildNestedTrace();
  const CallGraph graph = BuildNestedGraph();
  VarianceAnalysis va(trace);
  const FuncId txn = RegisterFunction("txn");
  const auto quad =
      AggregateFactors(va, graph, txn, SpecificityKind::kQuadratic);
  const auto lin = AggregateFactors(va, graph, txn, SpecificityKind::kLinear);
  ASSERT_FALSE(quad.empty());
  ASSERT_FALSE(lin.empty());
  // Quadratic: leafwork strictly first. Linear: leafwork's margin shrinks;
  // compare score ratios to confirm the weighting differs.
  auto score_of = [&](const std::vector<Factor>& v, const std::string& name) {
    for (const Factor& f : v) {
      if (f.Label(trace.function_names) == name) {
        return f.score;
      }
    }
    return 0.0;
  };
  const double quad_ratio =
      score_of(quad, "leafwork") / score_of(quad, "slow");
  const double lin_ratio = score_of(lin, "leafwork") / score_of(lin, "slow");
  EXPECT_GT(quad_ratio, lin_ratio);
}

TEST(FactorTest, LabelFormats) {
  Factor f;
  f.func_a = 1;
  const std::vector<std::string> names = {"zero", "one", "two"};
  EXPECT_EQ(f.Label(names), "one");
  f.body_a = true;
  EXPECT_EQ(f.Label(names), "one(body)");
  f.body_a = false;
  f.func_b = 2;
  EXPECT_EQ(f.Label(names), "(one, two)");
}

}  // namespace
}  // namespace vprof

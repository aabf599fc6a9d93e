#include "src/vprof/service/online_tree.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/analysis/variance_tree.h"
#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

// Same layout as variance_tree_test: per interval, txn spans the whole
// interval with children a (constant 100ns) and b (supplied), plus a 50ns
// txn body tail.
Trace BuildTwoChildTrace(const std::vector<TimeNs>& b_durations,
                         IntervalId first_sid = 1) {
  TraceBuilder tb;
  for (size_t i = 0; i < b_durations.size(); ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 10000;
    const TimeNs b_end = base + 100 + b_durations[i];
    const TimeNs end = b_end + 50;
    const IntervalId sid = first_sid + static_cast<IntervalId>(i);
    tb.Begin(0, sid, base).End(0, sid, end);
    tb.Exec(0, sid, base, end);
    const int txn = tb.Invoke(0, "txn", base, end, -1, sid);
    tb.Invoke(0, "a", base, base + 100, txn, sid);
    tb.Invoke(0, "b", base + 100, b_end, txn, sid);
  }
  return tb.Build();
}

// A leaf-only variant: txn instrumented, children not (the pre-expansion
// instrumentation the controller starts from).
Trace BuildLeafTrace(const std::vector<TimeNs>& txn_durations) {
  TraceBuilder tb;
  for (size_t i = 0; i < txn_durations.size(); ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 10000;
    const TimeNs end = base + txn_durations[i];
    const IntervalId sid = static_cast<IntervalId>(i + 1);
    tb.Begin(0, sid, base).End(0, sid, end);
    tb.Exec(0, sid, base, end);
    tb.Invoke(0, "txn", base, end, -1, sid);
  }
  return tb.Build();
}

NodeId FindNode(const OnlineTreeSnapshot& snap, const std::string& label) {
  for (size_t i = 0; i < snap.nodes.size(); ++i) {
    if (snap.NodeLabel(static_cast<NodeId>(i)) == label) {
      return static_cast<NodeId>(i);
    }
  }
  return -1;
}

TEST(OnlineVarianceTreeTest, SingleFoldMatchesBatchAnalysis) {
  const std::vector<TimeNs> b = {500, 1000, 1500, 2000};
  const Trace trace = BuildTwoChildTrace(b);
  VarianceAnalysis batch(trace);

  OnlineVarianceTree tree;
  tree.Fold(trace);
  const OnlineTreeSnapshot snap = tree.Snapshot();

  EXPECT_EQ(snap.epochs, 1u);
  EXPECT_EQ(snap.intervals, 4u);
  EXPECT_DOUBLE_EQ(snap.weight, 4.0);
  EXPECT_NEAR(snap.overall_mean(), batch.overall_mean(), 1e-9);
  EXPECT_NEAR(snap.overall_variance(), batch.overall_variance(), 1e-6);

  const NodeId b_node = FindNode(snap, "b");
  ASSERT_GE(b_node, 0);
  EXPECT_NEAR(snap.node_variance[static_cast<size_t>(b_node)], 312500.0, 1e-6);
  const NodeId a_node = FindNode(snap, "a");
  ASSERT_GE(a_node, 0);
  EXPECT_NEAR(snap.node_mean[static_cast<size_t>(a_node)], 100.0, 1e-9);
  EXPECT_NEAR(snap.node_variance[static_cast<size_t>(a_node)], 0.0, 1e-9);
}

TEST(OnlineVarianceTreeTest, LargeEpochFoldsOnTheCallingThread) {
  // A saturated server's epoch spans several analysis-pool blocks; folding
  // it inside the server must still leave the pool's workers asleep. Had the
  // pool been used, its workers would likely have run some block of one of
  // the five folds.
  std::vector<TimeNs> b(8192);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 100 + static_cast<TimeNs>(i % 97) * 10;
  }
  const Trace trace = BuildTwoChildTrace(b);
  OnlineVarianceTree tree;
  constexpr size_t kEpochs = 5;
  const uint64_t before = BlocksRunOnWorkers();
  for (size_t e = 0; e < kEpochs; ++e) {
    tree.Fold(trace);
  }
  EXPECT_EQ(BlocksRunOnWorkers(), before);

  const VarianceAnalysis batch(trace);
  const OnlineTreeSnapshot snap = tree.Snapshot();
  EXPECT_EQ(snap.intervals, kEpochs * b.size());
  EXPECT_NEAR(snap.overall_mean(), batch.overall_mean(), 1e-6);
  EXPECT_NEAR(snap.overall_variance(), batch.overall_variance(), 1e-3);
}

TEST(OnlineVarianceTreeTest, TwoEpochFoldMatchesBatchConcat) {
  // Folding two epochs without decay must equal one batch analysis over all
  // intervals: Welford streaming is order-insensitive.
  const std::vector<TimeNs> all = {100, 900, 400, 1600, 250, 700};
  const Trace batch_trace = BuildTwoChildTrace(all);
  VarianceAnalysis batch(batch_trace);

  OnlineVarianceTree tree;
  tree.Fold(BuildTwoChildTrace({100, 900, 400}, 1));
  tree.Fold(BuildTwoChildTrace({1600, 250, 700}, 10));
  const OnlineTreeSnapshot snap = tree.Snapshot();

  EXPECT_EQ(snap.epochs, 2u);
  EXPECT_EQ(snap.intervals, 6u);
  EXPECT_NEAR(snap.overall_mean(), batch.overall_mean(), 1e-6);
  EXPECT_NEAR(snap.overall_variance(), batch.overall_variance(), 1e-4);

  const NodeId b_node = FindNode(snap, "b");
  ASSERT_GE(b_node, 0);
  NodeId batch_b = -1;
  for (size_t i = 0; i < batch.node_count(); ++i) {
    if (batch.NodeLabel(static_cast<NodeId>(i)) == "b") {
      batch_b = static_cast<NodeId>(i);
    }
  }
  ASSERT_GE(batch_b, 0);
  EXPECT_NEAR(snap.node_variance[static_cast<size_t>(b_node)],
              batch.NodeVariance(batch_b), 1e-4);
}

TEST(OnlineVarianceTreeTest, DecompositionIdentityAfterMidStreamExpansion) {
  // Epoch 1 records txn as a leaf; epoch 2 arrives with children a/b (the
  // controller enabled their probes between epochs). Var(txn) over the whole
  // window must still equal the sum of child variances plus twice the
  // pairwise covariances — the body child inherits txn's pre-expansion
  // history and the function children seed as zeros.
  OnlineVarianceTree tree;
  tree.Fold(BuildLeafTrace({650, 1150, 1650}));
  tree.Fold(BuildTwoChildTrace({500, 1000, 1500, 2000}));
  const OnlineTreeSnapshot snap = tree.Snapshot();

  const NodeId txn = FindNode(snap, "txn");
  ASSERT_GE(txn, 0);
  const std::vector<NodeId>& children =
      snap.nodes[static_cast<size_t>(txn)].children;
  ASSERT_EQ(children.size(), 3u);  // a, b, txn(body)
  double sum = 0.0;
  for (NodeId c : children) {
    sum += snap.node_variance[static_cast<size_t>(c)];
  }
  for (const SiblingCovariance& cov : snap.covariances) {
    if (cov.parent == txn) {
      sum += 2.0 * cov.covariance;
    }
  }
  const double txn_var = snap.node_variance[static_cast<size_t>(txn)];
  EXPECT_NEAR(txn_var, sum, 1e-6 * (1.0 + txn_var));

  // All accumulators carry the full window's weight.
  EXPECT_DOUBLE_EQ(snap.weight, 7.0);
}

TEST(OnlineVarianceTreeTest, DecayForgetsOldRegime) {
  OnlineTreeOptions options;
  options.decay_half_life_epochs = 1.0;  // aggressive: halve every epoch
  OnlineVarianceTree tree(options);
  // One epoch of wildly varying b, then many epochs of constant b.
  tree.Fold(BuildTwoChildTrace({100, 4000, 200, 3600}));
  for (int i = 0; i < 12; ++i) {
    tree.Fold(BuildTwoChildTrace({800, 800, 800, 800}));
  }
  const OnlineTreeSnapshot snap = tree.Snapshot();
  const NodeId b_node = FindNode(snap, "b");
  ASSERT_GE(b_node, 0);
  // The noisy epoch is 12 half-lives old: b's variance must be near zero.
  EXPECT_LT(snap.node_variance[static_cast<size_t>(b_node)], 2000.0);

  // Without decay the old regime would dominate forever.
  OnlineVarianceTree cumulative;
  cumulative.Fold(BuildTwoChildTrace({100, 4000, 200, 3600}));
  for (int i = 0; i < 12; ++i) {
    cumulative.Fold(BuildTwoChildTrace({800, 800, 800, 800}));
  }
  const OnlineTreeSnapshot cum = cumulative.Snapshot();
  EXPECT_GT(cum.node_variance[static_cast<size_t>(FindNode(cum, "b"))],
            100000.0);
}

TEST(OnlineVarianceTreeTest, IdleEpochAgesWindowOnly) {
  OnlineTreeOptions options;
  options.decay_half_life_epochs = 1.0;
  OnlineVarianceTree tree(options);
  tree.Fold(BuildTwoChildTrace({500, 900}));
  const double weight_before = tree.Snapshot().weight;
  Trace idle;
  idle.duration = 1000;
  tree.Fold(idle);
  const OnlineTreeSnapshot snap = tree.Snapshot();
  EXPECT_EQ(snap.epochs, 2u);
  EXPECT_EQ(snap.intervals, 2u);
  EXPECT_NEAR(snap.weight, weight_before * 0.5, 1e-9);
}

TEST(OnlineVarianceTreeTest, NodePathAndLabels) {
  OnlineVarianceTree tree;
  tree.Fold(BuildTwoChildTrace({500, 900}));
  const OnlineTreeSnapshot snap = tree.Snapshot();
  const NodeId b_node = FindNode(snap, "b");
  ASSERT_GE(b_node, 0);
  EXPECT_EQ(snap.NodePath(b_node), "txn/b");
  EXPECT_EQ(snap.NodePath(kRootNode), "(interval)");
  const NodeId body = FindNode(snap, "txn(body)");
  ASSERT_GE(body, 0);
  EXPECT_EQ(snap.NodePath(body), "txn/txn(body)");
}

TEST(OnlineVarianceTreeTest, PromTextExposesCountersAndNodeGauges) {
  OnlineVarianceTree tree;
  tree.Fold(BuildTwoChildTrace({500, 1000, 1500}));
  const OnlineTreeSnapshot snap = tree.Snapshot();
  const std::string prom = snap.ToPromText();
  EXPECT_NE(prom.find("vprof_epochs_total 1"), std::string::npos);
  EXPECT_NE(prom.find("vprof_intervals_total 3"), std::string::npos);
  EXPECT_NE(prom.find("vprof_node_variance_ns2{path=\"txn/b\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("vprof_node_variance_share{path=\"txn\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE vprof_node_mean_ns gauge"), std::string::npos);
}

TEST(OnlineVarianceTreeTest, SurfacesStuckAndDroppedCounts) {
  Trace trace = BuildTwoChildTrace({500, 900});
  trace.stuck_threads.push_back(42);
  trace.threads[0].dropped_records = 7;
  OnlineVarianceTree tree;
  tree.Fold(trace);
  const OnlineTreeSnapshot snap = tree.Snapshot();
  EXPECT_EQ(snap.stuck_thread_epochs, 1u);
  EXPECT_EQ(snap.dropped_records, 7u);
  const std::string prom = snap.ToPromText();
  EXPECT_NE(prom.find("vprof_dropped_records_total 7"), std::string::npos);
  EXPECT_NE(prom.find("vprof_stuck_thread_epochs_total 1"), std::string::npos);
}

TEST(OnlineTreeSnapshotTest, ViewFeedsFactorSelection) {
  OnlineVarianceTree tree;
  tree.Fold(BuildTwoChildTrace({500, 1000, 1500, 2000}));
  const OnlineTreeSnapshot snap = tree.Snapshot();
  const VarianceTreeView view = snap.View();
  EXPECT_EQ(view.nodes.size(), snap.nodes.size());
  EXPECT_DOUBLE_EQ(view.overall_variance, snap.overall_variance());
}

}  // namespace
}  // namespace vprof

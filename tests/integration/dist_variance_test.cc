// Tentpole acceptance: end-to-end p99 variance decomposed ACROSS the tier
// boundary, on the two-tier stack of bench/two_tier.h: httpd (front tier,
// behind its own NetServer) calls minidb (the backend tier, behind another
// NetServer) through dist::BackendPool for every request, and the stack's
// Stitch splits the one trace by tier and joins it back on span ids.
//
// At overload the merged Eq. 2 decomposition must rank BOTH sides: a backend
// engine factor (lock/WAL) and a front-side factor (net:queue_wait or the
// allocator) in the top-3 — the cross-service claim of ROADMAP item 5. The
// online path (per-tier OnlineVarianceTree folds merged by DistMonitor) must
// expose the same tiers as tier:* statstore series. Cold-start mode must
// make the on-demand backend spawn rankable as dist:cold_start.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/two_tier.h"
#include "src/dist/monitor.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/service/history.h"

namespace {

bench::TwoTierOptions StackOptions(bool cold_start) {
  bench::TwoTierOptions options;
#if defined(__SANITIZE_THREAD__)
  options.front_workers = 1;
  options.backend_workers = 1;
  options.load_connections = 32;
#else
  options.front_workers = 2;
  options.backend_workers = 2;
  options.load_connections = 96;
#endif
  options.dispatch_depth = 16;
  options.seed = 0x7ea5;
  options.cold_start = cold_start;
  return options;
}

#if defined(__SANITIZE_THREAD__)
constexpr double kCalibrationRate = 400.0;
constexpr int kOnlineEpochs = 4;
constexpr int kEpochMs = 120;
#else
constexpr double kCalibrationRate = 2500.0;
constexpr int kOnlineEpochs = 5;
constexpr int kEpochMs = 100;
#endif
constexpr double kOverloadFactor = 1.5;

std::vector<std::string> TopLabels(const std::vector<vprof::Factor>& factors,
                                   const std::vector<std::string>& names,
                                   size_t k) {
  std::vector<std::string> top;
  for (const vprof::Factor& factor : factors) {
    if (factor.func_b != vprof::kInvalidFunc) {
      continue;  // covariance factors echo their single-function parts
    }
    top.push_back(factor.Label(names));
    if (top.size() == k) {
      break;
    }
  }
  return top;
}

void EnableAllProbes() {
  const size_t registered = vprof::RegisteredFunctionCount();
  for (vprof::FuncId id = 0; id < registered; ++id) {
    vprof::SetFunctionEnabled(id, true);
  }
}

TEST(DistVarianceIntegration, CrossTierFactorsAtOverloadAndOnlineTiers) {
  bench::TwoTierStack stack(StackOptions(/*cold_start=*/false));
  ASSERT_TRUE(stack.ready);

  // Find the two-tier capacity untraced, then overload it.
  const workload::OpenLoopResult calibration = workload::RunOpenLoop(
      stack.Load(kCalibrationRate, 0.6, /*seed=*/7));
  ASSERT_FALSE(calibration.connect_failed);
  ASSERT_GT(calibration.acked, 0u);
  const double overload = calibration.achieved_per_s * kOverloadFactor;

  // ---- Offline: one traced overload run, stitched and decomposed. --------
  EnableAllProbes();
  vprof::StartTracing();
  const workload::OpenLoopResult offline_run =
      workload::RunOpenLoop(stack.Load(overload, 0.9, /*seed=*/21));
  const vprof::Trace raw = vprof::StopTracing();
  ASSERT_GT(offline_run.acked, 0u);

  const dist::StitchResult stitched = stack.Stitch(raw);
  ASSERT_GT(stitched.stats.matched_spans, 0u)
      << "no RPC spans joined across the tier boundary";
  // Two edges per span, minus spans clipped at the trace boundary (a caller
  // that resumed after StopTracing has no post-wait segment to anchor).
  EXPECT_GE(stitched.stats.injected_edges,
            2 * stitched.stats.matched_spans * 95 / 100);

  vprof::CriticalPathOptions path_options;
  path_options.queue_wait_factor = net::kQueueWaitFactor;
  const vprof::VarianceAnalysis analysis(stitched.trace, path_options);
  ASSERT_GT(analysis.interval_count(), 0u);
  ASSERT_GT(analysis.overall_variance(), 0.0);

  // Eq. 2 must hold exactly at the merged root: children (including the
  // synthetic body) partition each interval's latency by construction.
  {
    double sum = 0.0;
    for (const vprof::NodeId child : analysis.node(vprof::kRootNode).children) {
      sum += analysis.NodeVariance(child);
    }
    for (const vprof::SiblingCovariance& cov : analysis.covariances()) {
      if (cov.parent == vprof::kRootNode) {
        sum += 2.0 * cov.covariance;
      }
    }
    const double overall = analysis.overall_variance();
    EXPECT_NEAR(sum, overall, 1e-6 * overall + 1.0)
        << "merged decomposition does not sum to end-to-end variance";
  }

  const std::vector<vprof::Factor> factors = vprof::AggregateFactors(
      analysis, stack.graph, stack.net_root, vprof::SpecificityKind::kQuadratic);
  const std::vector<std::string> top =
      TopLabels(factors, stitched.trace.function_names, 3);
  ASSERT_FALSE(top.empty());
  bool has_backend = false;
  bool has_front = false;
  for (const std::string& label : top) {
    has_backend = has_backend || bench::IsBackendFactor(label);
    has_front = has_front || bench::IsFrontFactor(label);
  }
  std::string joined;
  for (const std::string& label : top) {
    joined += label + " ";
  }
  EXPECT_TRUE(has_backend) << "no backend (lock/WAL) factor in top-3: "
                           << joined;
  EXPECT_TRUE(has_front) << "no front (net/allocator) factor in top-3: "
                         << joined;

  // ---- Online: per-tier trees folded per epoch, merged by DistMonitor. ---
  vprof::OnlineTreeOptions tree_options;
  tree_options.path_options.queue_wait_factor = net::kQueueWaitFactor;
  vprof::OnlineVarianceTree front_tree(tree_options);
  vprof::OnlineVarianceTree backend_tree(tree_options);

  dist::DistMonitor monitor;
  {
    dist::TierConfig front_cfg;
    front_cfg.name = "front";
    front_cfg.is_front = true;
    front_cfg.root = stack.net_root;
    monitor.RegisterTier(front_cfg);
    dist::TierConfig backend_cfg;
    backend_cfg.name = "minidb";
    backend_cfg.root = vprof::RegisterFunction("run_transaction");
    monitor.RegisterTier(backend_cfg);
  }

  vprof::StartTracing();
  std::thread load([&stack, overload]() {
    (void)workload::RunOpenLoop(stack.Load(
        overload, (kOnlineEpochs + 1) * kEpochMs / 1000.0, /*seed=*/35));
  });
  std::vector<statstore::EpochSample> samples;
  for (int e = 0; e < kOnlineEpochs; ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kEpochMs));
    vprof::Trace epoch_trace = vprof::StopTracing();
    vprof::StartTracing();
    const std::vector<vprof::Trace> tiers = dist::SplitByTids(
        epoch_trace, {{}, stack.backend->ProfiledTids()}, 0);
    front_tree.Fold(tiers[0]);
    backend_tree.Fold(tiers[1]);
    monitor.UpdateTier("front", front_tree.Snapshot());
    monitor.UpdateTier("minidb", backend_tree.Snapshot());
    samples.push_back(monitor.Sample(static_cast<uint64_t>(e)));
  }
  load.join();
  (void)vprof::StopTracing();
  vprof::DisableAllFunctions();

  const dist::DistSnapshot dist_snap = monitor.Snapshot();
  ASSERT_EQ(dist_snap.tiers.size(), 2u);
  EXPECT_TRUE(dist_snap.tiers[0].is_front);
  EXPECT_GT(dist_snap.end_to_end_variance_ns2, 0.0);
  EXPECT_GT(dist_snap.tiers[0].intervals, 0u);
  EXPECT_GT(dist_snap.tiers[1].intervals, 0u);
  EXPECT_GT(dist_snap.tiers[1].share, 0.0);
  EXPECT_DOUBLE_EQ(dist_snap.tiers[0].share, 1.0);

  // The merged factor list must rank entries from both tiers.
  const std::vector<dist::DistFactor> merged =
      monitor.TopFactors(stack.graph, 8);
  ASSERT_FALSE(merged.empty());
  std::set<std::string> tiers_seen;
  for (const dist::DistFactor& f : merged) {
    tiers_seen.insert(f.tier);
  }
  EXPECT_EQ(tiers_seen.size(), 2u) << "merged ranking is single-tier";

  // Every epoch persisted the full tier:* series set.
  ASSERT_EQ(samples.size(), static_cast<size_t>(kOnlineEpochs));
  std::set<std::string> series;
  for (const statstore::SeriesValue& value : samples.back().values) {
    series.insert(value.series);
  }
  for (const char* tier : {"front", "minidb"}) {
    for (const char* field :
         {"latency_mean_ns", "latency_variance_ns2", "share", "intervals"}) {
      EXPECT_EQ(series.count(vprof::TierSeriesName(tier, field)), 1u)
          << tier << ":" << field;
    }
  }
}

TEST(DistVarianceIntegration, ColdStartIsRankable) {
  bench::TwoTierStack stack(StackOptions(/*cold_start=*/true));
  ASSERT_TRUE(stack.ready);
  EXPECT_FALSE(stack.pool->ready());

  // Trace from before the first request: the spawn happens inside the run
  // and its cost lands on the requests that waited for it.
  EnableAllProbes();
  vprof::StartTracing();
  const workload::OpenLoopResult run = workload::RunOpenLoop(
      stack.Load(kCalibrationRate / 2, 0.5, /*seed=*/11));
  const vprof::Trace raw = vprof::StopTracing();
  vprof::DisableAllFunctions();
  ASSERT_GT(run.acked, 0u);
  EXPECT_EQ(stack.pool->cold_starts(), 1u);
  ASSERT_TRUE(stack.pool->ready());

  const dist::StitchResult stitched = stack.Stitch(raw);
  vprof::CriticalPathOptions path_options;
  path_options.queue_wait_factor = net::kQueueWaitFactor;
  const vprof::VarianceAnalysis analysis(stitched.trace, path_options);
  ASSERT_GT(analysis.overall_variance(), 0.0);

  const std::vector<vprof::Factor> factors = vprof::AggregateFactors(
      analysis, stack.graph, stack.net_root, vprof::SpecificityKind::kQuadratic);
  const std::vector<std::string> top =
      TopLabels(factors, stitched.trace.function_names, 3);
  ASSERT_FALSE(top.empty());
  bool has_cold_start = false;
  std::string joined;
  for (const std::string& label : top) {
    has_cold_start = has_cold_start || label == dist::kColdStartFunc;
    joined += label + " ";
  }
  EXPECT_TRUE(has_cold_start)
      << "dist:cold_start not in the first-epoch top-3: " << joined;
}

}  // namespace

// Vprofd + statstore wiring: every harvested epoch lands in the durable
// history store, epoch numbering survives a daemon restart, the regression
// detector feeds MetricsText, and the snapshot flattening is stable.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/statstore/store.h"
#include "src/vprof/probe.h"
#include "src/vprof/registry.h"
#include "src/vprof/runtime.h"
#include "src/vprof/service/history.h"
#include "src/vprof/service/online_tree.h"
#include "src/vprof/service/vprofd.h"
#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

void HistoryChildWork() {
  VPROF_FUNC("vprofd_hist_child");
  volatile int x = 0;
  for (int i = 0; i < 100; ++i) {
    x = x + i;
  }
}

void HistoryRootWork() {
  VPROF_FUNC("vprofd_hist_root");
  HistoryChildWork();
}

class VprofdHistoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/vprofd_history_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    SetFunctionEnabled(RegisterFunction("vprofd_hist_root"), false);
    SetFunctionEnabled(RegisterFunction("vprofd_hist_child"), false);
    std::filesystem::remove_all(dir_);
  }

  VprofdOptions Options() {
    VprofdOptions options;
    options.root_function = "vprofd_hist_root";
    options.epoch_ns = 15'000'000;  // 15 ms
    options.enable_controller = false;
    options.history.dir = dir_;
    return options;
  }

  // Runs a daemon against a live workload until it has harvested
  // `min_epochs` epochs, then stops it and returns the epoch count.
  uint64_t RunDaemon(Vprofd* daemon, uint64_t min_epochs) {
    SetFunctionEnabled(RegisterFunction("vprofd_hist_root"), true);
    SetFunctionEnabled(RegisterFunction("vprofd_hist_child"), true);
    std::atomic<bool> stop_worker{false};
    std::thread worker([&] {
      while (!stop_worker.load(std::memory_order_acquire)) {
        const IntervalId sid = BeginInterval();
        HistoryRootWork();
        EndInterval(sid);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    daemon->Start();
    while (daemon->epochs() < min_epochs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon->Stop();
    stop_worker.store(true, std::memory_order_release);
    worker.join();
    return daemon->epochs();
  }

  std::string dir_;
};

TEST_F(VprofdHistoryTest, PersistsEveryEpochAndSurvivesRestart) {
  uint64_t first_run_epochs = 0;
  {
    Vprofd daemon(Options());
    first_run_epochs = RunDaemon(&daemon, 4);
    ASSERT_NE(daemon.history(), nullptr);
    EXPECT_EQ(daemon.history()->record_count(), first_run_epochs);
    EXPECT_EQ(daemon.history()->last_epoch(), first_run_epochs);
    EXPECT_EQ(daemon.history()->stats().append_errors, 0u);

    // The flattened snapshot streams are queryable while running.
    const std::vector<statstore::SeriesPoint> intervals =
        daemon.history()->Query("stats:intervals", 0, UINT64_MAX);
    ASSERT_EQ(intervals.size(), first_run_epochs);
    EXPECT_GT(intervals.back().value, 0.0);
    const std::vector<statstore::SeriesPoint> gaps = daemon.history()->Query(
        "health:rotation_gap_max_ns", 0, UINT64_MAX);
    ASSERT_EQ(gaps.size(), first_run_epochs);

    const std::string metrics = daemon.MetricsText();
    EXPECT_NE(metrics.find("vprofd_history_appends_total "), std::string::npos);
    EXPECT_NE(metrics.find("vprofd_history_last_epoch "), std::string::npos);
    EXPECT_NE(metrics.find("vprofd_regression_flags_total "),
              std::string::npos);
  }

  // A second daemon over the same directory extends the same epoch stream
  // instead of clashing with the persisted tail.
  Vprofd daemon(Options());
  const uint64_t second_run_epochs = RunDaemon(&daemon, 2);
  ASSERT_NE(daemon.history(), nullptr);
  EXPECT_EQ(daemon.history()->last_epoch(),
            first_run_epochs + second_run_epochs);
  EXPECT_EQ(daemon.history()->stats().append_errors, 0u);
  const std::vector<statstore::SeriesPoint> intervals =
      daemon.history()->Query("stats:intervals", 0, UINT64_MAX);
  EXPECT_EQ(intervals.size(), first_run_epochs + second_run_epochs);
  // Epochs are strictly increasing across the restart boundary.
  for (size_t i = 1; i < intervals.size(); ++i) {
    EXPECT_GT(intervals[i].epoch, intervals[i - 1].epoch);
  }
}

TEST_F(VprofdHistoryTest, EmptyDirDisablesHistory) {
  VprofdOptions options = Options();
  options.history.dir.clear();
  Vprofd daemon(std::move(options));
  EXPECT_EQ(daemon.history(), nullptr);
  // MetricsText still renders (no history families).
  const std::string metrics = daemon.MetricsText();
  EXPECT_EQ(metrics.find("vprofd_history_appends_total"), std::string::npos);
  EXPECT_NE(metrics.find("vprofd_harvest_epochs_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot flattening (history.h) without a live daemon
// ---------------------------------------------------------------------------

TEST(SnapshotFlattenTest, EmitsNodeAndHealthSeries) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 1000);
  tb.Exec(0, 1, 0, 1000);
  const int root = tb.Invoke(0, "flat_root", 0, 1000, -1, 1);
  tb.Invoke(0, "flat_child", 0, 400, root, 1);
  OnlineVarianceTree tree;
  tree.Fold(tb.Build());

  HarvestHealth health;
  health.rotation_gap_last_ns = 11;
  health.rotation_gap_max_ns = 22;
  health.rotation_gap_total_ns = 33;
  const statstore::EpochSample sample =
      SampleFromSnapshot(tree.Snapshot(), 42, health);
  EXPECT_EQ(sample.epoch, 42u);

  auto value_of = [&](const std::string& series, double* out) {
    for (const statstore::SeriesValue& sv : sample.values) {
      if (sv.series == series) {
        *out = sv.value;
        return true;
      }
    }
    return false;
  };
  double v = 0.0;
  EXPECT_TRUE(value_of("stats:intervals", &v));
  EXPECT_EQ(v, 1.0);
  EXPECT_TRUE(value_of("health:rotation_gap_max_ns", &v));
  EXPECT_EQ(v, 22.0);
  EXPECT_TRUE(value_of("health:dropped_records", &v));
  EXPECT_EQ(v, 0.0);
  // Per-node streams exist for every non-root node, named by path.
  bool found_node_share = false;
  for (const statstore::SeriesValue& sv : sample.values) {
    if (sv.series.rfind("node:", 0) == 0 &&
        sv.series.find(":share") != std::string::npos) {
      found_node_share = true;
      EXPECT_GE(sv.value, 0.0);
    }
  }
  EXPECT_TRUE(found_node_share);
}

TEST(SnapshotFlattenTest, ObserveSnapshotFeedsDetector) {
  statstore::RegressionOptions opts;
  opts.warmup_epochs = 2;
  opts.k_sigma = 3.0;
  opts.sigma_floor = 0.001;
  opts.min_abs_shift = 0.01;
  statstore::RegressionDetector detector(opts);

  // Epochs 1..10: child A dominates. Epoch 11: child B takes over.
  auto fold_epoch = [](OnlineVarianceTree* tree, TimeNs a_var_step,
                       TimeNs b_var_step) {
    TraceBuilder tb;
    for (int i = 0; i < 4; ++i) {
      const TimeNs base = static_cast<TimeNs>(i) * 100000;
      const TimeNs a_end = base + 100 + a_var_step * (i % 2);
      const TimeNs b_end = a_end + 100 + b_var_step * (i % 2);
      const TimeNs end = b_end + 50;
      const IntervalId sid = static_cast<IntervalId>(i + 1);
      tb.Begin(0, sid, base).End(0, sid, end);
      tb.Exec(0, sid, base, end);
      const int txn = tb.Invoke(0, "obs_txn", base, end, -1, sid);
      tb.Invoke(0, "obs_a", base, a_end, txn, sid);
      tb.Invoke(0, "obs_b", a_end, b_end, txn, sid);
    }
    tree->Fold(tb.Build());
  };

  OnlineTreeOptions tree_opts;
  tree_opts.decay_half_life_epochs = 2.0;  // adapt fast for the test
  OnlineVarianceTree tree(tree_opts);
  int flags = 0;
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    fold_epoch(&tree, 1000, 0);
    flags += ObserveSnapshot(&detector, tree.Snapshot(), epoch);
  }
  EXPECT_EQ(flags, 0) << "steady decomposition must not flag";
  EXPECT_GT(detector.series_count(), 0u);

  for (uint64_t epoch = 11; epoch <= 14; ++epoch) {
    fold_epoch(&tree, 0, 1000);
    flags += ObserveSnapshot(&detector, tree.Snapshot(), epoch);
  }
  EXPECT_GT(flags, 0) << "share migration must flag";
  // The flagged series is one of the node share streams.
  const std::vector<statstore::RegressionFlag> raised = detector.flags();
  ASSERT_FALSE(raised.empty());
  EXPECT_EQ(raised.front().series.rfind("node:", 0), 0u);
}

}  // namespace
}  // namespace vprof

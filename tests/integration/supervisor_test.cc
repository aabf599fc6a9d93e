// Self-healing vprofd (ctest label `chaos`):
//
//   * The Supervisor's escalation ladder walks Normal -> Degraded ->
//     Quarantined and back with hysteresis in both directions, flipping the
//     degradation knobs at each level.
//   * A live Vprofd under induced history-store pressure reaches Degraded
//     within 3 epochs, restores to Normal once the pressure clears, records
//     the transition in the persisted "health:supervisor_state" series, and
//     exports the supervisor Prometheus families.
//   * A daemon parked in Quarantined costs the served workload within 5% of
//     the tracing-off no-daemon baseline.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/minidb/engine.h"
#include "src/statkit/rng.h"
#include "src/vprof/service/supervisor.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/tpcc.h"

namespace {

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DeactivateAll();
    fault::ResetCounters();
  }
  void TearDown() override {
    fault::DeactivateAll();
    fault::ResetCounters();
  }
};

vprof::EpochHealth Unhealthy() {
  vprof::EpochHealth health;
  health.history_append_errors = 1;
  return health;
}

TEST_F(SupervisorTest, LadderWalksDownAndUpWithHysteresis) {
  vprof::SupervisorOptions options;
  options.escalate_after = 2;
  options.restore_after = 2;
  vprof::Supervisor supervisor(options);

  // Normal with full knobs.
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kNormal);
  EXPECT_TRUE(supervisor.tracing_enabled());
  EXPECT_DOUBLE_EQ(supervisor.epoch_multiplier(), 1.0);
  EXPECT_TRUE(supervisor.controller_enabled());

  // One unhealthy epoch is hysteresis-absorbed; the second escalates.
  EXPECT_FALSE(supervisor.Observe(Unhealthy()));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kNormal);
  EXPECT_TRUE(supervisor.Observe(Unhealthy()));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kDegraded);
  // Degraded sheds load but keeps profiling.
  EXPECT_TRUE(supervisor.tracing_enabled());
  EXPECT_DOUBLE_EQ(supervisor.epoch_multiplier(),
                   options.degraded_epoch_multiplier);
  EXPECT_FALSE(supervisor.controller_enabled());

  // Two more unhealthy epochs quarantine: tracing off entirely.
  EXPECT_FALSE(supervisor.Observe(Unhealthy()));
  EXPECT_TRUE(supervisor.Observe(Unhealthy()));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kQuarantined);
  EXPECT_FALSE(supervisor.tracing_enabled());

  // The ladder saturates at the bottom.
  EXPECT_FALSE(supervisor.Observe(Unhealthy()));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kQuarantined);

  // Healthy epochs restore one level at a time, with hysteresis.
  EXPECT_FALSE(supervisor.Observe({}));
  EXPECT_TRUE(supervisor.Observe({}));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kDegraded);
  // A relapse resets the healthy streak...
  EXPECT_FALSE(supervisor.Observe(Unhealthy()));
  // ...so one healthy epoch is not enough to reach Normal yet.
  EXPECT_FALSE(supervisor.Observe({}));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kDegraded);
  EXPECT_TRUE(supervisor.Observe({}));
  EXPECT_EQ(supervisor.state(), vprof::SupervisorState::kNormal);
  EXPECT_TRUE(supervisor.tracing_enabled());

  const vprof::SupervisorStatus status = supervisor.status();
  EXPECT_EQ(status.escalations, 2u);
  EXPECT_EQ(status.restorations, 2u);
  EXPECT_EQ(status.unhealthy_epochs, 6u);
  EXPECT_EQ(status.epochs_observed, 10u);
}

TEST_F(SupervisorTest, AnyThresholdBreachIsUnhealthy) {
  vprof::SupervisorOptions options;
  options.escalate_after = 1;
  options.max_rotation_gap_ns = 1000;
  vprof::Supervisor gap_supervisor(options);
  vprof::EpochHealth gap;
  gap.rotation_gap_ns = 2000;
  EXPECT_TRUE(gap_supervisor.Observe(gap));
  EXPECT_EQ(gap_supervisor.state(), vprof::SupervisorState::kDegraded);

  vprof::Supervisor drop_supervisor(options);
  vprof::EpochHealth drops;
  drops.dropped_records = 1;
  EXPECT_TRUE(drop_supervisor.Observe(drops));
  EXPECT_EQ(drop_supervisor.state(), vprof::SupervisorState::kDegraded);

  vprof::Supervisor stuck_supervisor(options);
  vprof::EpochHealth stuck;
  stuck.stuck_threads = 1;
  EXPECT_TRUE(stuck_supervisor.Observe(stuck));
  EXPECT_EQ(stuck_supervisor.state(), vprof::SupervisorState::kDegraded);
}

// A live daemon under history-store write pressure: Degraded within 3
// epochs, automatic restoration once the pressure clears, the transition
// persisted to the history store, and the Prom families exported.
TEST_F(SupervisorTest, VprofdDegradesUnderHistoryPressureAndRestores) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/supervisor_history";
  std::filesystem::remove_all(dir);

  vprof::VprofdOptions options;
  options.root_function = "supervisor_it_root";
  options.enable_controller = false;
  options.epoch_ns = 2'000'000;  // 2 ms epochs keep the test fast
  options.history.dir = dir;
  options.history.fault_scope = "sup_hist";
  options.enable_supervisor = true;
  options.supervisor.escalate_after = 2;
  options.supervisor.restore_after = 2;
  // Keep the epoch cadence while degraded so restoration is as fast as
  // escalation (the multiplier knob itself is covered by the ladder test).
  options.supervisor.degraded_epoch_multiplier = 1.0;

  // Every history append fails from the first epoch on.
  fault::Activate("sup_hist/write_error", fault::Trigger::Always());

  vprof::Vprofd daemon(std::move(options));
  daemon.Start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.supervisor_state() == vprof::SupervisorState::kNormal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const vprof::SupervisorStatus at_escalation = daemon.supervisor().status();
  ASSERT_NE(daemon.supervisor_state(), vprof::SupervisorState::kNormal)
      << "supervisor never escalated under append pressure";
  EXPECT_GE(at_escalation.escalations, 1u);
  // Acceptance: Degraded within 3 epochs of the pressure starting. Every
  // epoch under pressure is unhealthy, so with escalate_after=2 the first
  // escalation fires at epoch 2; the loose bound only absorbs poll lag
  // between the transition and this status read.
  EXPECT_EQ(at_escalation.unhealthy_epochs, at_escalation.epochs_observed);
  EXPECT_LE(at_escalation.epochs_observed, 5u);

  // Pressure clears; the ladder walks back to Normal on its own.
  fault::Deactivate("sup_hist/write_error");
  while (daemon.supervisor_state() != vprof::SupervisorState::kNormal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(daemon.supervisor_state(), vprof::SupervisorState::kNormal)
      << "supervisor never restored after the pressure cleared";
  const vprof::SupervisorStatus restored = daemon.supervisor().status();
  EXPECT_GE(restored.restorations, restored.escalations);

  // The scrape carries the supervisor families.
  const std::string text = daemon.MetricsText();
  EXPECT_NE(text.find("vprofd_supervisor_state"), std::string::npos);
  EXPECT_NE(text.find("vprofd_supervisor_escalations_total"),
            std::string::npos);

  daemon.Stop();

  // Post-pressure epochs persisted the non-Normal state: the transition is
  // visible in the durable history.
  ASSERT_NE(daemon.history(), nullptr);
  const auto points =
      daemon.history()->Query("health:supervisor_state", 0, UINT64_MAX);
  ASSERT_FALSE(points.empty());
  bool saw_non_normal = false;
  bool saw_normal = false;
  for (const auto& point : points) {
    saw_non_normal |= point.value > 0.0;
    saw_normal |= point.value == 0.0;
  }
  EXPECT_TRUE(saw_non_normal)
      << "no degraded/quarantined epoch reached the history store";
  EXPECT_TRUE(saw_normal);
  std::filesystem::remove_all(dir);
}

// Quarantine overhead: a daemon parked in Quarantined (tracing off, empty
// rotations, history appends only) must cost the served workload within 5%
// of the no-daemon tracing-off baseline.
TEST_F(SupervisorTest, QuarantinedServingOverheadWithinFivePercent) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 2;
  config.log_disk.read_mu = 0.1;
  config.log_disk.write_mu = 0.1;
  config.log_disk.fsync_mu = 0.1;
  config.log_disk.fsync_spike_prob = 0.0;
  config.data_disk = config.log_disk;
  minidb::Engine engine(config);

  constexpr int kTxns = 3000;
  const auto run_once = [&engine](uint64_t seed) {
    workload::TpccGenerator generator(workload::TpccOptions{}, 2);
    statkit::Rng rng(seed);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTxns; ++i) {
      engine.Execute(generator.Next(rng));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  const std::string dir =
      std::string(::testing::TempDir()) + "/quarantine_history";
  // Starts a daemon and parks it in Quarantined.
  const auto start_quarantined = [&dir] {
    std::filesystem::remove_all(dir);
    vprof::VprofdOptions options;
    options.enable_controller = false;
    options.epoch_ns = 2'000'000;
    options.history.dir = dir;
    options.history.fault_scope = "supq_hist";
    options.enable_supervisor = true;
    options.supervisor.escalate_after = 1;
    options.supervisor.restore_after = 1'000'000;  // park at the bottom
    options.supervisor.degraded_epoch_multiplier = 1.0;

    fault::Activate("supq_hist/write_error", fault::Trigger::Always());
    auto daemon = minidb::Engine::StartOnlineProfiler(std::move(options));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon->supervisor_state() !=
               vprof::SupervisorState::kQuarantined &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Disarm before measuring: an armed failpoint anywhere makes every disk
    // op take the registry lock, which would bill orchestration cost to the
    // quarantined daemon.
    fault::Deactivate("supq_hist/write_error");
    return daemon;
  };

  run_once(1);  // warm-up
  // Best of three trials per arm. The arms alternate and run the same
  // seeds, so the engine's growth and the host's drift reach both alike.
  double baseline_s = 1e18;
  double quarantined_s = 1e18;
  for (uint64_t seed = 10; seed < 13; ++seed) {
    baseline_s = std::min(baseline_s, run_once(seed));
    const auto daemon = start_quarantined();
    ASSERT_EQ(daemon->supervisor_state(),
              vprof::SupervisorState::kQuarantined);
    EXPECT_FALSE(daemon->supervisor().tracing_enabled());
    quarantined_s = std::min(quarantined_s, run_once(seed));
    daemon->Stop();
  }
  std::filesystem::remove_all(dir);

  // 5% relative plus a 2ms absolute allowance for scheduler noise on the
  // short runs. Sanitizer instrumentation inflates the daemon's per-epoch
  // bookkeeping far past its production cost, so those builds only guard
  // against gross regressions; the 5% acceptance bound is enforced by the
  // plain build and bench/chaos.
  double relative = 1.05, absolute_s = 0.002;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  relative = 1.50, absolute_s = 0.050;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  relative = 1.50, absolute_s = 0.050;
#endif
#endif
  EXPECT_LE(quarantined_s, baseline_s * relative + absolute_s)
      << "baseline " << baseline_s << "s vs quarantined " << quarantined_s
      << "s";
}

}  // namespace

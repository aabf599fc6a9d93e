// Crash-recovery property tests for the Postgres-style WAL (ISSUE: fault
// model), covering both the single-lock (1 unit) and distributed two-log
// (2 unit) configurations.
//
// XLogFlush is synchronous, so the invariant matches the redo log's kEager
// contract: an LSN acknowledged by Flush() == kOk is never lost across a
// crash injected at any commit-path failpoint, and torn tails are detected
// by checksum and truncated.
#include "src/minipg/wal.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/simio/disk.h"

namespace minipg {
namespace {

simio::DiskConfig FastDisk(const std::string& scope) {
  simio::DiskConfig config;
  config.read_mu = 0.1;
  config.write_mu = 0.1;
  config.fsync_mu = 0.1;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 1.0;
  config.fault_scope = scope;
  config.seed = 17;
  return config;
}

class WalCrashTest : public ::testing::TestWithParam<int> {
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

TEST(WalChecksumTest, DetectsHeaderCorruption) {
  const uint32_t good = WalRecordChecksum(8192, 256);
  EXPECT_NE(good, WalRecordChecksum(8193, 256));
  EXPECT_NE(good, WalRecordChecksum(8192, 257));
}

// An acked Flush survives a crash injected at every commit-path failpoint,
// in both the 1-unit and 2-unit configurations.
TEST_P(WalCrashTest, AckedFlushSurvivesCrashAtAnyCrashPoint) {
  const int units = GetParam();
  const char* kCrashPoints[] = {"wal/crash_before_write",
                                "wal/crash_after_write",
                                "wal/crash_mid_batch",
                                "wal/crash_after_fsync"};
  for (const char* point : kCrashPoints) {
    SCOPED_TRACE(point);
    Wal wal(units, FastDisk("wal_crash"));
    for (int i = 0; i < units; ++i) {
      wal.unit(i).set_crash_seed(7);
    }

    // Ack a few flushes per unit while healthy.
    std::vector<uint64_t> last_acked(static_cast<size_t>(units), 0);
    for (int i = 0; i < 4 * units; ++i) {
      const Wal::Position pos = wal.Insert(128);
      ASSERT_NE(pos.lsn, 0u);
      if (wal.Flush(pos) == WalStatus::kOk) {
        last_acked[static_cast<size_t>(pos.unit)] =
            std::max(last_acked[static_cast<size_t>(pos.unit)], pos.lsn);
      }
    }

    // The next flush crashes whichever unit it lands on.
    fault::Activate(point, fault::Trigger::OneShot());
    const Wal::Position doomed = wal.Insert(128);
    ASSERT_NE(doomed.lsn, 0u);
    EXPECT_EQ(wal.Flush(doomed), WalStatus::kCrashed);
    WalUnit& crashed_unit = wal.unit(doomed.unit);
    EXPECT_TRUE(crashed_unit.crashed());
    if (std::string(point) == "wal/crash_after_fsync") {
      // Durable before the crash; ack just never reached the caller.
      last_acked[static_cast<size_t>(doomed.unit)] = doomed.lsn;
    }
    fault::Deactivate(point);

    // The crashed unit refuses work; others (if any) keep going.
    EXPECT_EQ(crashed_unit.Insert(64), 0u);
    for (int i = 0; i < units; ++i) {
      if (i == doomed.unit) {
        continue;
      }
      const uint64_t lsn = wal.unit(i).Insert(64);
      ASSERT_NE(lsn, 0u);
      EXPECT_EQ(wal.unit(i).Flush(lsn), WalStatus::kOk);
    }

    const WalRecoveryResult recovered = crashed_unit.Recover();
    EXPECT_FALSE(crashed_unit.crashed());
    EXPECT_GE(recovered.recovered_lsn,
              last_acked[static_cast<size_t>(doomed.unit)])
        << "acked LSN lost across crash at " << point;
    EXPECT_EQ(crashed_unit.flushed_lsn(), recovered.recovered_lsn);

    // Usable again after recovery.
    const uint64_t fresh = crashed_unit.Insert(64);
    ASSERT_NE(fresh, 0u);
    EXPECT_EQ(crashed_unit.Flush(fresh), WalStatus::kOk);
  }
}

// Torn tails truncate deterministically for the same crash seed.
TEST_P(WalCrashTest, TornTailTruncationIsSeedDeterministic) {
  const int units = GetParam();
  auto run = [&](uint64_t crash_seed) {
    Wal wal(units, FastDisk("wal_torn"));
    WalUnit& unit = wal.unit(0);
    unit.set_crash_seed(crash_seed);
    // Build up written-but-unsynced state, then kill the unit between the
    // write and the fsync: the whole batch reached the device cache, and
    // the crash keeps only a seeded prefix of it, possibly torn. (A failed
    // fsync can no longer stage this — it wedges the unit and drops the
    // unsynced window entirely; see the fsyncgate test below.)
    for (int i = 0; i < 10; ++i) {
      unit.Insert(200);
    }
    fault::ScopedFailpoint fp("wal/crash_after_write",
                              fault::Trigger::OneShot());
    EXPECT_EQ(unit.Flush(unit.insert_lsn() - 1), WalStatus::kCrashed);
    return unit.Recover();
  };

  const WalRecoveryResult a = run(41);
  const WalRecoveryResult b = run(41);
  EXPECT_EQ(a.recovered_lsn, b.recovered_lsn);
  EXPECT_EQ(a.records_recovered, b.records_recovered);
  EXPECT_EQ(a.torn_truncated, b.torn_truncated);
  EXPECT_EQ(a.records_recovered + a.records_lost, 10u);
}

// I/O errors are retryable without loss (distinct from crashes).
TEST_P(WalCrashTest, IoErrorIsRetryableWithoutLoss) {
  const int units = GetParam();
  Wal wal(units, FastDisk("wal_ioerr"));
  WalUnit& unit = wal.unit(0);
  const uint64_t lsn = unit.Insert(128);
  {
    fault::ScopedFailpoint fp("wal_ioerr.0/write_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(unit.Flush(lsn), WalStatus::kIoError);
  }
  EXPECT_FALSE(unit.crashed());
  EXPECT_EQ(unit.Flush(lsn), WalStatus::kOk);
  EXPECT_EQ(unit.flushed_lsn(), lsn);
  EXPECT_EQ(unit.stats().io_errors, 1u);
}

// fsyncgate regression: a failed fsync is NOT retryable. The kernel dropped
// the unsynced window, so the unit must wedge — a later successful fsync
// must never silently acknowledge the dropped records.
TEST_P(WalCrashTest, FailedFsyncWedgesUnitInsteadOfSilentlyAcking) {
  const int units = GetParam();
  Wal wal(units, FastDisk("wal_wedge"));
  WalUnit& unit = wal.unit(0);
  const uint64_t lsn = unit.Insert(128);
  ASSERT_EQ(unit.Flush(lsn), WalStatus::kOk);  // durable baseline

  const uint64_t lsn2 = unit.Insert(128);
  {
    fault::ScopedFailpoint fp("wal_wedge.0/fsync_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(unit.Flush(lsn2), WalStatus::kWedged);
  }
  EXPECT_TRUE(unit.wedged());
  // The failpoint is disarmed, so a bare retry would find a working fsync;
  // the wedge must keep refusing anyway — lsn2's record is gone.
  EXPECT_EQ(unit.Flush(lsn2), WalStatus::kWedged);
  EXPECT_EQ(unit.Insert(64), 0u);  // inserts refused while wedged
  EXPECT_EQ(unit.stats().wedges, 1u);

  // Recovery truncates to the durable prefix; the wedged window was never
  // acked and does not survive.
  const WalRecoveryResult recovered = unit.Recover();
  EXPECT_FALSE(unit.wedged());
  EXPECT_EQ(recovered.recovered_lsn, lsn);
  EXPECT_LT(recovered.recovered_lsn, lsn2);

  const uint64_t fresh = unit.Insert(64);
  ASSERT_NE(fresh, 0u);
  EXPECT_EQ(unit.Flush(fresh), WalStatus::kOk);
}

// Backends sleeping in LWLockAcquireOrWait observe a crash instead of
// hanging, and no backend receives a false durability ack.
TEST_P(WalCrashTest, WaitersWakeOnCrash) {
  const int units = GetParam();
  Wal wal(units, FastDisk("wal_waiters"));
  wal.unit(0).set_crash_seed(13);
  fault::Activate("wal/crash_before_write", fault::Trigger::OneShot());
  std::atomic<int> failed{0};
  std::vector<std::thread> backends;
  for (int t = 0; t < 4; ++t) {
    backends.emplace_back([&] {
      const uint64_t lsn = wal.unit(0).Insert(128);
      if (lsn == 0 || wal.unit(0).Flush(lsn) == WalStatus::kCrashed) {
        failed.fetch_add(1);
      }
    });
  }
  for (auto& t : backends) {
    t.join();
  }
  fault::Deactivate("wal/crash_before_write");
  EXPECT_TRUE(wal.unit(0).crashed());
  EXPECT_EQ(failed.load(), 4);
  const WalRecoveryResult recovered = wal.unit(0).Recover();
  EXPECT_EQ(recovered.recovered_lsn, 0u);  // nothing was ever durable
}

// Wal-wide crash/recover helpers cover every unit.
TEST_P(WalCrashTest, CrashAllRecoverAllCoversEveryUnit) {
  const int units = GetParam();
  Wal wal(units, FastDisk("wal_all"));
  for (int i = 0; i < units; ++i) {
    const uint64_t lsn = wal.unit(i).Insert(100);
    EXPECT_EQ(wal.unit(i).Flush(lsn), WalStatus::kOk);
  }
  wal.CrashAll(/*seed=*/50);
  for (int i = 0; i < units; ++i) {
    EXPECT_TRUE(wal.unit(i).crashed());
  }
  const std::vector<WalRecoveryResult> results = wal.RecoverAll();
  ASSERT_EQ(results.size(), static_cast<size_t>(units));
  for (int i = 0; i < units; ++i) {
    EXPECT_FALSE(wal.unit(i).crashed());
    EXPECT_EQ(results[static_cast<size_t>(i)].recovered_lsn, 100u);
  }
}

// A crash while a leader is stalled in the device write waits for that
// leader: its pre-crash batch cannot land after Recover, so a fresh record
// never reuses its LSN and an acked flush survives the next crash.
TEST_P(WalCrashTest, CrashDuringFlushLosesNoAck) {
  const int units = GetParam();
  simio::DiskConfig config = FastDisk("wal_stall");
  config.stall_us = 200000.0;
  Wal wal(units, config);
  WalUnit& unit = wal.unit(0);
  const uint64_t a = unit.Insert(100);
  ASSERT_NE(a, 0u);

  fault::Activate("wal_stall.0/stall", fault::Trigger::OneShot());
  std::thread leader([&] { unit.Flush(a); });
  while (fault::TriggerCount("wal_stall.0/stall") != 1) {
    std::this_thread::yield();
  }
  unit.Crash(/*seed=*/3);
  unit.Recover();
  leader.join();

  const uint64_t b = unit.Insert(100);
  ASSERT_NE(b, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(unit.Flush(b), WalStatus::kOk);
  unit.Crash(/*seed=*/4);
  EXPECT_EQ(unit.Recover().records_lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(SingleAndTwoLog, WalCrashTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace minipg

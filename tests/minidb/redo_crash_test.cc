// Crash-recovery property tests for the redo log (ISSUE: fault model).
//
// Invariants under test:
//   * kEager: an LSN acknowledged by CommitUpTo() == kOk is never lost, no
//     matter where in the commit path the crash is injected.
//   * kLazyFlush / kLazyWrite: recovery restores at least the flushed
//     watermark observed at crash time (the loss window is exactly the
//     un-flushed tail, as documented).
//   * Torn tails are detected by checksum and truncated, never replayed.
#include "src/minidb/redo_log.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/minidb/config.h"
#include "src/simio/disk.h"

namespace minidb {
namespace {

simio::DiskConfig FastDisk(const std::string& scope) {
  simio::DiskConfig config;
  config.read_mu = 0.1;
  config.write_mu = 0.1;
  config.fsync_mu = 0.1;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 1.0;
  config.fault_scope = scope;
  config.seed = 11;
  return config;
}

class RedoCrashTest : public ::testing::Test {
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

TEST_F(RedoCrashTest, ChecksumDetectsHeaderCorruption) {
  const uint32_t good = LogRecordChecksum(4096, 128);
  EXPECT_NE(good, LogRecordChecksum(4097, 128));
  EXPECT_NE(good, LogRecordChecksum(4096, 129));
}

// kEager: every acked commit survives a crash injected at each commit-path
// failpoint.
TEST_F(RedoCrashTest, EagerNeverLosesAckedLsnAtAnyCrashPoint) {
  const char* kCrashPoints[] = {"redo/crash_before_write",
                                "redo/crash_after_write",
                                "redo/crash_mid_batch",
                                "redo/crash_after_fsync"};
  for (const char* point : kCrashPoints) {
    SCOPED_TRACE(point);
    simio::Disk disk(FastDisk("redo_eager_crash"));
    RedoLog log(FlushPolicy::kEager, &disk, /*flusher_period_us=*/1e6);
    log.set_crash_seed(99);

    // Ack a few commits while healthy.
    uint64_t last_acked = 0;
    for (int i = 0; i < 5; ++i) {
      const uint64_t lsn = log.Append(100);
      ASSERT_NE(lsn, 0u);
      if (log.CommitUpTo(lsn) == LogStatus::kOk) {
        last_acked = lsn;
      }
    }
    ASSERT_GT(last_acked, 0u);

    // Arm the crash point; the next commit crashes the log somewhere in its
    // write+fsync path.
    fault::Activate(point, fault::Trigger::OneShot());
    const uint64_t doomed = log.Append(100);
    ASSERT_NE(doomed, 0u);
    const LogStatus status = log.CommitUpTo(doomed);
    EXPECT_EQ(status, LogStatus::kCrashed);
    EXPECT_TRUE(log.crashed());
    // If the commit crashed after the fsync, the record IS durable — the
    // invariant is one-way: ack implies durable, never the reverse.
    if (std::string(point) == "redo/crash_after_fsync") {
      last_acked = doomed;
    }
    fault::Deactivate(point);

    // While crashed, the log refuses work.
    EXPECT_EQ(log.Append(50), 0u);
    EXPECT_EQ(log.CommitUpTo(last_acked), LogStatus::kCrashed);

    const RecoveryResult recovered = log.Recover();
    EXPECT_FALSE(log.crashed());
    EXPECT_GE(recovered.recovered_lsn, last_acked)
        << "acked LSN lost across crash at " << point;
    EXPECT_EQ(log.flushed_lsn(), recovered.recovered_lsn);

    // The log is usable again after recovery.
    const uint64_t fresh = log.Append(64);
    ASSERT_NE(fresh, 0u);
    EXPECT_GT(fresh, recovered.recovered_lsn);
    EXPECT_EQ(log.CommitUpTo(fresh), LogStatus::kOk);
  }
}

// Lazy policies: recovery restores at least the flushed watermark observed
// before the crash; everything acked-but-unflushed is the documented loss
// window.
TEST_F(RedoCrashTest, LazyPoliciesLoseAtMostTheUnflushedWindow) {
  for (const FlushPolicy policy :
       {FlushPolicy::kLazyFlush, FlushPolicy::kLazyWrite}) {
    SCOPED_TRACE(static_cast<int>(policy));
    simio::Disk disk(FastDisk("redo_lazy_crash"));
    // Short flusher period so some records do become durable.
    RedoLog log(policy, &disk, /*flusher_period_us=*/2000.0);

    uint64_t highest_appended = 0;
    for (int i = 0; i < 50; ++i) {
      const uint64_t lsn = log.Append(80);
      ASSERT_NE(lsn, 0u);
      EXPECT_EQ(log.CommitUpTo(lsn), LogStatus::kOk);  // lazy ack
      highest_appended = lsn;
      if (i % 10 == 9) {
        simio::SleepUs(4000.0);  // let the background flusher run
      }
    }
    const uint64_t flushed_before_crash = log.flushed_lsn();
    log.Crash(/*seed=*/1234);
    EXPECT_TRUE(log.crashed());

    const RecoveryResult recovered = log.Recover();
    // Never recover less than what was durably flushed...
    EXPECT_GE(recovered.recovered_lsn, flushed_before_crash);
    // ...and never claim more than was ever appended.
    EXPECT_LE(recovered.recovered_lsn, highest_appended);
    EXPECT_GT(recovered.recovered_lsn, 0u);  // flusher ran at least once
  }
}

// A crash with written-but-unsynced records produces a torn tail that
// recovery detects via checksum and truncates deterministically.
TEST_F(RedoCrashTest, TornTailIsDetectedAndTruncatedDeterministically) {
  auto run = [](uint64_t crash_seed) {
    simio::Disk disk(FastDisk("redo_torn_crash"));
    RedoLog log(FlushPolicy::kLazyFlush, &disk, /*flusher_period_us=*/1e6);
    // kLazyFlush commit path writes to the device but never fsyncs, so every
    // record is written-but-at-risk.
    for (int i = 0; i < 20; ++i) {
      const uint64_t lsn = log.Append(100);
      EXPECT_EQ(log.CommitUpTo(lsn), LogStatus::kOk);
    }
    EXPECT_EQ(log.device_record_count(), 20u);
    EXPECT_EQ(log.durable_record_count(), 0u);
    log.Crash(crash_seed);
    return log.Recover();
  };

  const RecoveryResult a = run(77);
  const RecoveryResult b = run(77);
  // Same seed: identical survivor prefix and identical truncation.
  EXPECT_EQ(a.recovered_lsn, b.recovered_lsn);
  EXPECT_EQ(a.records_recovered, b.records_recovered);
  EXPECT_EQ(a.torn_truncated, b.torn_truncated);
  EXPECT_EQ(a.records_lost, b.records_lost);
  EXPECT_LE(a.records_recovered, 20u);
  // Accounting: survivors + lost covers every record.
  EXPECT_EQ(a.records_recovered + a.records_lost, 20u);
}

// A torn disk write (short transfer) corrupts the checksum of the record
// crossing the tear point even without a crash-failpoint: recovery truncates
// there.
TEST_F(RedoCrashTest, ShortDiskWriteYieldsTornRecordOnRecovery) {
  simio::Disk disk(FastDisk("redo_shortwrite"));
  RedoLog log(FlushPolicy::kLazyFlush, &disk, /*flusher_period_us=*/1e6);
  // First batch lands intact.
  uint64_t intact_lsn = log.Append(600);
  EXPECT_EQ(log.CommitUpTo(intact_lsn), LogStatus::kOk);
  // Second batch suffers a torn write: only a prefix of its bytes transfer.
  {
    fault::ScopedFailpoint fp("redo_shortwrite/torn_write",
                              fault::Trigger::Always());
    for (int i = 0; i < 4; ++i) {
      log.Append(600);
    }
    EXPECT_EQ(log.CommitUpTo(log.next_lsn() - 1), LogStatus::kOk);
  }
  log.Crash(/*seed=*/5);
  const RecoveryResult recovered = log.Recover();
  // The intact first record can survive; nothing past the tear ever can.
  EXPECT_LT(recovered.recovered_lsn, log.next_lsn());
  EXPECT_LE(recovered.records_recovered, 5u);

  // Regardless of where the tear fell, the log still works.
  const uint64_t fresh = log.Append(32);
  ASSERT_NE(fresh, 0u);
  EXPECT_EQ(log.CommitUpTo(fresh), LogStatus::kOk);
}

// Disk-level write errors (not crashes) are retryable: the batch returns to
// the buffer and a later commit lands it.
TEST_F(RedoCrashTest, WriteErrorIsRetryableWithoutLoss) {
  simio::Disk disk(FastDisk("redo_ioerr"));
  RedoLog log(FlushPolicy::kEager, &disk, /*flusher_period_us=*/1e6);
  const uint64_t lsn = log.Append(100);
  {
    fault::ScopedFailpoint fp("redo_ioerr/write_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(log.CommitUpTo(lsn), LogStatus::kIoError);
  }
  EXPECT_FALSE(log.crashed());
  EXPECT_EQ(log.CommitUpTo(lsn), LogStatus::kOk);  // retry succeeds
  EXPECT_EQ(log.flushed_lsn(), lsn);
  EXPECT_EQ(log.stats().io_errors, 1u);
}

// fsyncgate regression: a FAILED fsync is not retryable. The kernel dropped
// the unsynced window, so the log must wedge — were it to stay open, the
// next (successful) fsync would silently acknowledge commits whose records
// never reached stable storage.
TEST_F(RedoCrashTest, FailedFsyncWedgesInsteadOfSilentlyAcking) {
  simio::Disk disk(FastDisk("redo_wedge"));
  RedoLog log(FlushPolicy::kEager, &disk, /*flusher_period_us=*/1e6);
  const uint64_t lsn = log.Append(100);
  ASSERT_EQ(log.CommitUpTo(lsn), LogStatus::kOk);  // durable baseline

  const uint64_t lsn2 = log.Append(100);
  {
    fault::ScopedFailpoint fp("redo_wedge/fsync_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(log.CommitUpTo(lsn2), LogStatus::kWedged);
  }
  EXPECT_TRUE(log.wedged());
  // The failpoint is gone — a bare retry would find a working fsync. The
  // wedge must keep refusing anyway: lsn2's record no longer exists on the
  // device, so no commit depending on the failed window may ever be acked.
  EXPECT_EQ(log.CommitUpTo(lsn2), LogStatus::kWedged);
  EXPECT_EQ(log.Append(64), 0u);  // appends refused while wedged
  EXPECT_EQ(log.stats().wedges, 1u);

  // Recovery reopens at the durable prefix: the first commit survives, the
  // wedged window does not — and was never acknowledged.
  const RecoveryResult recovered = log.Recover();
  EXPECT_FALSE(log.wedged());
  EXPECT_EQ(recovered.recovered_lsn, lsn);
  EXPECT_LT(recovered.recovered_lsn, lsn2);

  const uint64_t fresh = log.Append(80);
  ASSERT_NE(fresh, 0u);
  EXPECT_EQ(log.CommitUpTo(fresh), LogStatus::kOk);
}

// Commits already waiting inside the eager group-commit protocol observe an
// injected crash instead of hanging.
TEST_F(RedoCrashTest, EagerWaitersWakeOnCrash) {
  simio::Disk disk(FastDisk("redo_waiters"));
  RedoLog log(FlushPolicy::kEager, &disk, /*flusher_period_us=*/1e6);
  log.set_crash_seed(3);
  fault::Activate("redo/crash_before_write", fault::Trigger::OneShot());
  std::vector<std::thread> committers;
  std::atomic<int> crashed_acks{0};
  for (int t = 0; t < 4; ++t) {
    committers.emplace_back([&] {
      const uint64_t lsn = log.Append(100);
      if (lsn == 0 || log.CommitUpTo(lsn) == LogStatus::kCrashed) {
        crashed_acks.fetch_add(1);
      }
    });
  }
  for (auto& t : committers) {
    t.join();
  }
  fault::Deactivate("redo/crash_before_write");
  EXPECT_TRUE(log.crashed());
  EXPECT_EQ(crashed_acks.load(), 4);  // nobody hung, nobody got a false ack
  const RecoveryResult recovered = log.Recover();
  EXPECT_EQ(recovered.recovered_lsn, 0u);  // nothing was ever durable
}

// A crash while a leader is stalled in the device write waits for that
// leader: its pre-crash batch cannot land after Recover, so a fresh record
// never reuses its LSN and an acked commit survives the next crash.
TEST_F(RedoCrashTest, CrashDuringFlushLosesNoAck) {
  simio::DiskConfig config = FastDisk("redo_stall");
  config.stall_us = 200000.0;
  simio::Disk disk(config);
  RedoLog log(FlushPolicy::kEager, &disk, /*flusher_period_us=*/1e6);
  const uint64_t a = log.Append(100);
  ASSERT_NE(a, 0u);

  fault::Activate("redo_stall/stall", fault::Trigger::OneShot());
  std::thread leader([&] { log.CommitUpTo(a); });
  while (fault::TriggerCount("redo_stall/stall") != 1) {
    std::this_thread::yield();
  }
  log.Crash(/*seed=*/3);
  log.Recover();
  leader.join();

  const uint64_t b = log.Append(100);
  ASSERT_NE(b, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(log.CommitUpTo(b), LogStatus::kOk);
  log.Crash(/*seed=*/4);
  EXPECT_EQ(log.Recover().records_lost, 0u);
}

}  // namespace
}  // namespace minidb

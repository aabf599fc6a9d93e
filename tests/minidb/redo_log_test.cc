// minidb's redo log policies: the lazy flush policies of
// innodb_flush_log_at_trx_commit and the background flusher that makes them
// durable. The group-commit log under them is tested on both engines in
// tests/commitlog/.
#include "src/minidb/redo_log.h"

#include <gtest/gtest.h>

namespace minidb {
namespace {

simio::DiskConfig FastLogDisk() {
  simio::DiskConfig config;
  config.write_mu = 0.5;
  config.write_sigma = 0.05;
  config.fsync_mu = 1.5;
  config.fsync_sigma = 0.05;
  config.fsync_spike_prob = 0.0;
  config.serialize_access = false;
  return config;
}

TEST(RedoLogTest, LazyFlushWritesButDoesNotSync) {
  simio::Disk disk(FastLogDisk());
  RedoLog log(FlushPolicy::kLazyFlush, &disk, 1e7 /* effectively never */);
  const uint64_t lsn = log.Append(256);
  const uint64_t syncs_before = disk.fsyncs();
  log.CommitUpTo(lsn);
  EXPECT_GE(log.written_lsn(), lsn);      // data written...
  EXPECT_EQ(disk.fsyncs(), syncs_before);  // ...but not synced on this path
  EXPECT_EQ(log.device_record_count(), 1u);
  EXPECT_EQ(log.durable_record_count(), 0u);
}

TEST(RedoLogTest, LazyWriteDefersEverything) {
  simio::Disk disk(FastLogDisk());
  RedoLog log(FlushPolicy::kLazyWrite, &disk, 1e7);
  const uint64_t lsn = log.Append(256);
  log.CommitUpTo(lsn);
  EXPECT_LT(log.written_lsn(), lsn);
  EXPECT_LT(log.flushed_lsn(), lsn);
}

TEST(RedoLogTest, BackgroundFlusherCatchesUp) {
  simio::Disk disk(FastLogDisk());
  RedoLog log(FlushPolicy::kLazyWrite, &disk, 500.0 /* 0.5ms period */);
  const uint64_t lsn = log.Append(256);
  log.CommitUpTo(lsn);
  // Wait for the flusher to run.
  for (int i = 0; i < 200 && log.flushed_lsn() < lsn; ++i) {
    simio::SleepUs(1000);
  }
  EXPECT_GE(log.flushed_lsn(), lsn);
  EXPECT_GE(log.stats().background_flushes, 1u);
}

}  // namespace
}  // namespace minidb

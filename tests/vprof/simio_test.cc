#include "src/simio/disk.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/statkit/summary.h"

namespace simio {
namespace {

double ElapsedUs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

TEST(DiskTest, CountsOperations) {
  DiskConfig config;
  config.read_mu = 1.0;  // keep the test fast
  config.write_mu = 1.0;
  config.fsync_mu = 1.0;
  Disk disk(config);
  disk.Read(100);
  disk.Write(100);
  disk.Write(100);
  disk.Fsync();
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 2u);
  EXPECT_EQ(disk.fsyncs(), 1u);
}

// The timing cases compare the service times the disk sampled, not the
// wall-clock time of the calls: a host stall during a sleep would otherwise
// decide them.
TEST(DiskTest, FsyncSlowerThanWrite) {
  DiskConfig config;
  config.fsync_spike_prob = 0.0;
  Disk disk(config);
  double write_total = 0.0;
  double fsync_total = 0.0;
  for (int i = 0; i < 20; ++i) {
    write_total += disk.Write(256).service_us;
    fsync_total += disk.Fsync().service_us;
  }
  EXPECT_GT(fsync_total, write_total);
}

TEST(DiskTest, TransferTimeScalesWithBytes) {
  DiskConfig config;
  config.read_mu = 1.0;
  config.read_sigma = 0.01;
  config.bytes_per_us = 100.0;
  config.serialize_access = false;
  Disk disk(config);
  double small = 0.0;
  double large = 0.0;
  for (int i = 0; i < 10; ++i) {
    small += disk.Read(100).service_us;
    large += disk.Read(100000).service_us;  // +999us transfer
  }
  // Ten reads' transfer difference, 9,990 us; the lognormal bases (e^1
  // with sigma 0.01, about 2.7 us each) differ by far less than 1 us.
  EXPECT_NEAR(large - small, 9990.0, 1.0);
}

TEST(DiskTest, DeterministicSeedGivesSameCounts) {
  // The RNG stream is seed-driven: two disks with the same seed sample the
  // same service time, spike included, for each operation of the sequence.
  DiskConfig config;
  config.fsync_mu = 2.0;
  config.seed = 7;
  Disk a(config);
  Disk b(config);
  std::vector<double> ta;
  std::vector<double> tb;
  for (int i = 0; i < 10; ++i) {
    ta.push_back(a.Fsync().service_us);
  }
  for (int i = 0; i < 10; ++i) {
    tb.push_back(b.Fsync().service_us);
  }
  EXPECT_EQ(ta, tb);
}

TEST(DiskTest, SerializedAccessQueues) {
  DiskConfig config;
  config.fsync_mu = 6.2;  // ~500us median
  config.fsync_sigma = 0.05;
  config.fsync_spike_prob = 0.0;
  config.serialize_access = true;
  Disk disk(config);
  // Two threads fsync concurrently: with a single spindle, total wall time
  // must be at least ~2 service times.
  const double elapsed = ElapsedUs([&] {
    std::thread t1([&] { disk.Fsync(); });
    std::thread t2([&] { disk.Fsync(); });
    t1.join();
    t2.join();
  });
  EXPECT_GT(elapsed, 800.0);
}

TEST(DiskTest, ZeroByteOpsSucceed) {
  DiskConfig config;
  config.read_mu = 1.0;
  config.write_mu = 1.0;
  Disk disk(config);
  const IoResult read = disk.Read(0);
  const IoResult write = disk.Write(0);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read.bytes, 0u);
  EXPECT_TRUE(write.ok());
  EXPECT_EQ(write.bytes, 0u);
  EXPECT_EQ(disk.buffered_bytes(), 0u);
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(DiskTest, FsyncWithEmptyWriteBufferSucceeds) {
  DiskConfig config;
  config.fsync_mu = 1.0;
  config.fsync_spike_prob = 0.0;
  Disk disk(config);
  const IoResult result = disk.Fsync();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.bytes, 0u);  // nothing was buffered
  EXPECT_EQ(disk.fsyncs(), 1u);
}

TEST(DiskTest, BufferedBytesTrackWritesUntilFsync) {
  DiskConfig config;
  config.write_mu = 1.0;
  config.fsync_mu = 1.0;
  config.fsync_spike_prob = 0.0;
  Disk disk(config);
  disk.Write(100);
  disk.Write(28);
  EXPECT_EQ(disk.buffered_bytes(), 128u);
  const IoResult result = disk.Fsync();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.bytes, 128u);
  EXPECT_EQ(disk.buffered_bytes(), 0u);
}

TEST(DiskTest, ConcurrentOpsWithoutSerialization) {
  DiskConfig config;
  config.read_mu = 1.0;
  config.write_mu = 1.0;
  config.serialize_access = false;
  Disk disk(config);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        EXPECT_TRUE(disk.Read(64).ok());
        EXPECT_TRUE(disk.Write(64).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(disk.reads(), kThreads * kOpsPerThread);
  EXPECT_EQ(disk.writes(), kThreads * kOpsPerThread);
  EXPECT_EQ(disk.buffered_bytes(), kThreads * kOpsPerThread * 64u);
}

TEST(DiskFaultTest, InjectedReadAndWriteErrors) {
  DiskConfig config;
  config.read_mu = 1.0;
  config.write_mu = 1.0;
  config.error_latency_us = 1.0;
  config.fault_scope = "disk_err_test";
  Disk disk(config);
  {
    fault::ScopedFailpoint read_fp("disk_err_test/read_error",
                                   fault::Trigger::EveryNth(2));
    fault::ScopedFailpoint write_fp("disk_err_test/write_error",
                                    fault::Trigger::OneShot());
    EXPECT_TRUE(disk.Read(10).ok());    // 1st hit passes
    EXPECT_FALSE(disk.Read(10).ok());   // 2nd fires
    EXPECT_FALSE(disk.Write(10).ok());  // one-shot fires immediately
    EXPECT_TRUE(disk.Write(10).ok());
  }
  EXPECT_TRUE(disk.Read(10).ok());  // disarmed
  const DiskFaultStats stats = disk.fault_stats();
  EXPECT_EQ(stats.read_errors, 1u);
  EXPECT_EQ(stats.write_errors, 1u);
  // The failed write transferred nothing into the buffer.
  EXPECT_EQ(disk.buffered_bytes(), 10u);
}

TEST(DiskFaultTest, FsyncErrorDropsDirtyBuffer) {
  DiskConfig config;
  config.write_mu = 1.0;
  config.fsync_mu = 1.0;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 1.0;
  config.fault_scope = "disk_fsync_test";
  Disk disk(config);
  disk.Write(512);
  {
    fault::ScopedFailpoint fp("disk_fsync_test/fsync_error",
                              fault::Trigger::OneShot());
    EXPECT_FALSE(disk.Fsync().ok());
    // fsyncgate: the kernel drops the dirty pages on fsync failure, so the
    // buffered window is gone — a retry must NOT report it synced.
    EXPECT_EQ(disk.buffered_bytes(), 0u);
    const IoResult retry = disk.Fsync();  // one-shot consumed: fsync works
    EXPECT_TRUE(retry.ok());
    EXPECT_EQ(retry.bytes, 0u);  // ...but there was nothing left to sync
  }
  EXPECT_EQ(disk.fault_stats().fsync_errors, 1u);
}

TEST(DiskFaultTest, TornWriteTransfersDeterministicPrefix) {
  DiskConfig config;
  config.write_mu = 1.0;
  config.seed = 2024;
  config.fault_scope = "disk_torn_test";
  Disk a(config);
  Disk b(config);
  fault::ScopedFailpoint fp("disk_torn_test/torn_write",
                            fault::Trigger::Always());
  const IoResult ra = a.Write(1000);
  const IoResult rb = b.Write(1000);
  EXPECT_TRUE(ra.ok());
  EXPECT_LT(ra.bytes, 1000u);          // short write
  EXPECT_EQ(ra.bytes, rb.bytes);       // same seed, same tear point
  EXPECT_EQ(a.buffered_bytes(), ra.bytes);
  EXPECT_EQ(a.fault_stats().torn_writes, 1u);
}

TEST(DiskFaultTest, StallFaultAddsLatency) {
  DiskConfig config;
  config.read_mu = 1.0;
  config.read_sigma = 0.01;
  config.stall_us = 3000.0;
  config.fault_scope = "disk_stall_test";
  Disk disk(config);
  const double base = disk.Read(16).service_us;
  fault::ScopedFailpoint fp("disk_stall_test/stall", fault::Trigger::Always());
  const double stalled = disk.Read(16).service_us;
  // The stall adds exactly stall_us; the two base samples (e^1 with sigma
  // 0.01) differ by a small fraction of a microsecond.
  EXPECT_NEAR(stalled - base, 3000.0, 0.5);
  EXPECT_EQ(disk.fault_stats().stalls, 1u);
}

TEST(SleepUsTest, SleepsAtLeastRequested) {
  const double elapsed = ElapsedUs([] { SleepUs(2000.0); });
  EXPECT_GE(elapsed, 1800.0);
}

TEST(SleepUsTest, NonPositiveIsNoop) {
  const double elapsed = ElapsedUs([] {
    SleepUs(0.0);
    SleepUs(-5.0);
  });
  EXPECT_LT(elapsed, 1000.0);
}

}  // namespace
}  // namespace simio

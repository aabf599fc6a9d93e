// Property tests for the redo log's lazy flush policies: LSN monotonicity
// and the flushed <= next ordering across policies and thread counts, and a
// prompt flusher shutdown. The kEager rows, whose commit is the group-commit
// log's own, run on both engines in tests/commitlog/.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/minidb/redo_log.h"

namespace minidb {
namespace {

simio::DiskConfig QuickDisk() {
  simio::DiskConfig config;
  config.write_mu = 0.3;
  config.write_sigma = 0.05;
  config.fsync_mu = 1.0;
  config.fsync_sigma = 0.05;
  config.fsync_spike_prob = 0.0;
  config.serialize_access = false;
  return config;
}

struct PropertyCase {
  FlushPolicy policy;
  int threads;
};

class RedoLogProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RedoLogProperty, LsnsAndDurabilityInvariants) {
  const PropertyCase param = GetParam();
  simio::Disk disk(QuickDisk());
  RedoLog log(param.policy, &disk, 300.0);

  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < param.threads; ++t) {
    threads.emplace_back([&] {
      uint64_t previous = 0;
      for (int i = 0; i < 120; ++i) {
        const uint64_t lsn = log.Append(64);
        // Per-thread LSNs strictly increase.
        if (lsn <= previous) {
          violation.store(true);
        }
        previous = lsn;
        log.CommitUpTo(lsn);
        // flushed <= written <= next everywhere.
        if (log.flushed_lsn() > log.next_lsn() - 1) {
          violation.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(log.stats().appends, static_cast<uint64_t>(param.threads) * 120u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedoLogProperty,
    ::testing::Values(PropertyCase{FlushPolicy::kLazyFlush, 1},
                      PropertyCase{FlushPolicy::kLazyFlush, 4},
                      PropertyCase{FlushPolicy::kLazyWrite, 4}));

TEST(RedoLogShutdownTest, DestructorJoinsFlusherQuickly) {
  simio::Disk disk(QuickDisk());
  const auto t0 = std::chrono::steady_clock::now();
  {
    RedoLog log(FlushPolicy::kLazyWrite, &disk, 1e7);  // 10s nominal period
    log.Append(128);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Shutdown must not wait out the nominal period.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            1000);
}

}  // namespace
}  // namespace minidb

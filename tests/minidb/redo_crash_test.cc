// Crash recovery under minidb's lazy flush policies: recovery restores at
// least the flushed watermark seen at crash time, so the loss window is
// exactly the un-flushed tail, as documented. The commit log's own crash
// invariants (kEager never loses an acked LSN, torn tails truncate) are
// tested on both engines in tests/commitlog/.
#include "src/minidb/redo_log.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "src/minidb/config.h"
#include "src/simio/disk.h"
#include "tests/commitlog/fast_disk.h"

namespace minidb {
namespace {

TEST(RedoCrashTest, LazyPoliciesLoseAtMostTheUnflushedWindow) {
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

}  // namespace
}  // namespace minidb

// Crash recovery of the distributed two-log WAL (paper Figure 4 right):
// a crash of one unit leaves the other serving, and the Wal-wide crash and
// recovery cover every unit. One unit's own crash invariants are the
// group-commit log's, tested on both engines in tests/commitlog/.
#include "src/minipg/wal.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "tests/commitlog/fast_disk.h"

namespace minipg {
namespace {

class WalCrashTest : public ::testing::Test {
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

// With two units, an acked flush survives a crash of its unit at every
// commit-path failpoint, while the other unit keeps serving.
TEST_F(WalCrashTest, AckedFlushSurvivesCrashAtAnyCrashPoint) {
  constexpr int kUnits = 2;
  for (const char* point : {"wal/crash_before_write", "wal/crash_after_write",
                            "wal/crash_mid_batch", "wal/crash_after_fsync"}) {
    SCOPED_TRACE(point);
    Wal wal(kUnits, FastDisk("wal_crash"));
    for (int i = 0; i < kUnits; ++i) {
      wal.unit(i).set_crash_seed(7);
    }

    // Ack a few flushes per unit while healthy.
    std::vector<uint64_t> last_acked(kUnits, 0);
    for (int i = 0; i < 4 * kUnits; ++i) {
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
      // Durable before the crash; the ack just never reached the caller.
      last_acked[static_cast<size_t>(doomed.unit)] = doomed.lsn;
    }
    fault::Deactivate(point);

    // The crashed unit refuses work; the other keeps going.
    EXPECT_EQ(crashed_unit.Insert(64), 0u);
    const int other = 1 - doomed.unit;
    const uint64_t lsn = wal.unit(other).Insert(64);
    ASSERT_NE(lsn, 0u);
    EXPECT_EQ(wal.unit(other).Flush(lsn), WalStatus::kOk);

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

// Wal-wide crash/recover helpers cover every unit.
TEST_F(WalCrashTest, CrashAllRecoverAllCoversEveryUnit) {
  constexpr int kUnits = 2;
  Wal wal(kUnits, FastDisk("wal_all"));
  for (int i = 0; i < kUnits; ++i) {
    const uint64_t lsn = wal.unit(i).Insert(100);
    EXPECT_EQ(wal.unit(i).Flush(lsn), WalStatus::kOk);
  }
  wal.CrashAll(/*seed=*/50);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_TRUE(wal.unit(i).crashed());
  }
  const std::vector<WalRecoveryResult> results = wal.RecoverAll();
  ASSERT_EQ(results.size(), static_cast<size_t>(kUnits));
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_FALSE(wal.unit(i).crashed());
    EXPECT_EQ(results[static_cast<size_t>(i)].recovered_lsn, 100u);
  }
}

}  // namespace
}  // namespace minipg

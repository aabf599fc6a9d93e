// Write-ahead log modeled on Postgres: each WalUnit is the shared
// group-commit log (src/commitlog/commit_log.h) on its own disk. Backends
// use LWLockAcquireOrWait: "acquire the lock, or sleep until the current
// holder releases it and re-check whether our LSN already became durable".
//
// Paper Table 6 attributes 76.8% of Postgres transaction latency variance to
// LWLockAcquireOrWait through exactly this call site. The follower sleep of
// group commit and the write-mutex wait of CommitMode::kExclusive both run
// under it; the batch write plus fsync runs under issue_xlog_fsync. The
// paper's fix (Figure 4 right) is distributed logging across two disks,
// here multiple WalUnits with waiter-count-based placement.
//
// XLogFlush is synchronous: a Flush() that returned kOk is never lost.
// Crashes are injected at the "wal/crash_*" failpoints; unit i's disk gets
// failpoint scope "<base>.<i>". Writes round up to 8192-byte blocks.
#ifndef SRC_MINIPG_WAL_H_
#define SRC_MINIPG_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/commitlog/commit_log.h"
#include "src/simio/disk.h"

namespace minipg {

using CommitMode = commitlog::CommitMode;
using WalStatus = commitlog::Status;
using WalRecord = commitlog::Record;
using WalRecoveryResult = commitlog::RecoveryResult;
inline constexpr auto& WalRecordChecksum = commitlog::RecordChecksum;

struct WalStats {
  uint64_t inserts = 0;
  uint64_t flush_calls = 0;
  uint64_t flushes_performed = 0;  // write+fsync rounds
  uint64_t flush_waits = 0;        // times a backend slept on the write lock
  uint64_t batched_records = 0;    // records written to the device by flushes
  uint64_t io_errors = 0;          // disk errors surfaced on the flush path
  uint64_t wedges = 0;             // failed fsyncs that wedged the unit
  uint64_t crashes = 0;
};

// One log: an insert position, a flushed position, and the write lock.
class WalUnit {
 public:
  explicit WalUnit(const simio::DiskConfig& disk_config,
                   CommitMode mode = CommitMode::kGroupCommit);

  // Reserves log space (XLogInsert); returns the record's end LSN, or 0
  // while the unit is crashed, wedged or shut down.
  uint64_t Insert(uint64_t bytes);

  // Makes the log durable up to `lsn` (XLogFlush).
  WalStatus Flush(uint64_t lsn);

  // The rest is the shared log's (src/commitlog/commit_log.h). minipg's
  // backends flush synchronously; FlushPipelined runs the shared log's
  // pipelined commit on this unit.
  void FlushPipelined(uint64_t lsn, commitlog::Completion done) {
    log_.CommitPipelined(lsn, std::move(done));
  }
  void Crash(uint64_t seed) { log_.Crash(seed); }
  WalRecoveryResult Recover() { return log_.Recover(); }
  void Shutdown() { log_.Shutdown(); }
  bool crashed() const { return log_.crashed(); }
  bool wedged() const { return log_.wedged(); }
  bool shutdown() const { return log_.shutdown(); }
  void set_crash_seed(uint64_t seed) { log_.set_crash_seed(seed); }
  CommitMode commit_mode() const { return log_.commit_mode(); }
  uint64_t flushed_lsn() const { return log_.flushed_lsn(); }
  uint64_t insert_lsn() const { return log_.next_lsn(); }
  // Backends sleeping on the write lock; Wal places records by it.
  int waiters() const { return log_.waiters(); }
  size_t device_record_count() const { return log_.device_record_count(); }
  size_t durable_record_count() const { return log_.durable_record_count(); }

  WalStats stats() const;
  const simio::Disk& disk() const { return disk_; }

 private:
  simio::Disk disk_;
  commitlog::CommitLog log_;
  std::atomic<uint64_t> flush_calls_{0};
};

// The paper's distributed-logging fix: N independent WAL units on separate
// disks; each transaction logs to the unit with the fewest waiters.
class Wal {
 public:
  Wal(int units, const simio::DiskConfig& disk_config,
      CommitMode mode = CommitMode::kGroupCommit);

  struct Position {
    int unit = 0;
    uint64_t lsn = 0;
  };

  // Chooses a unit (fewest waiters) and inserts.
  Position Insert(uint64_t bytes);

  // Inserts into a specific unit (follow-up records of the same txn).
  Position InsertAt(int unit, uint64_t bytes);

  WalStatus Flush(const Position& position);

  // Crashes / recovers every unit (unit i crashes with seed + i).
  void CrashAll(uint64_t seed);
  std::vector<WalRecoveryResult> RecoverAll();

  // Gracefully shuts down every unit (see WalUnit::Shutdown).
  void Shutdown();

  int unit_count() const { return static_cast<int>(units_.size()); }
  WalUnit& unit(int i) { return *units_[static_cast<size_t>(i)]; }

 private:
  std::vector<std::unique_ptr<WalUnit>> units_;
};

}  // namespace minipg

#endif  // SRC_MINIPG_WAL_H_

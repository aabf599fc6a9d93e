// Redo log: the shared group-commit log (src/commitlog/commit_log.h) under
// the three durability policies of innodb_flush_log_at_trx_commit (paper
// Section 4.5, Figure 4 center).
//
//   kEager:     every commit waits until its LSN is written and fsync'd.
//               fil_flush, the fsync, is the high-variance I/O function of
//               Table 4. An acknowledged CommitUpTo(lsn) == kOk is never lost.
//   kLazyFlush: commits write the log buffer but leave the fsync to the
//               background flusher thread (risking recent commits on crash).
//   kLazyWrite: commits return immediately; the flusher writes and syncs.
//
// Crashes are injected at the "redo/crash_*" failpoints; writes round up to
// 512-byte blocks.
#ifndef SRC_MINIDB_REDO_LOG_H_
#define SRC_MINIDB_REDO_LOG_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/commitlog/commit_log.h"
#include "src/minidb/config.h"
#include "src/simio/disk.h"

namespace minidb {

using RedoLogStats = commitlog::Stats;
using LogStatus = commitlog::Status;
using LogRecord = commitlog::Record;
using RecoveryResult = commitlog::RecoveryResult;
inline constexpr auto& LogRecordChecksum = commitlog::RecordChecksum;

class RedoLog {
 public:
  RedoLog(FlushPolicy policy, simio::Disk* disk, double flusher_period_us,
          CommitMode mode = CommitMode::kGroupCommit);
  ~RedoLog();

  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  // Appends `bytes` of redo to the log buffer; returns the record's LSN, or
  // 0 while the log is crashed, wedged or shut down.
  uint64_t Append(uint64_t bytes) { return log_.Append(bytes); }

  // Makes the log durable up to `lsn` according to the policy
  // (log_write_up_to). Blocks only under kEager.
  LogStatus CommitUpTo(uint64_t lsn);

  // The pipelined commit (commitlog::CommitLog::CommitPipelined) under
  // kEager: `done` runs once `lsn` is durable, or failed, on whichever
  // thread leads the flush, and each round the leader drives is one
  // log_write_up_to invocation. The lazy policies run CommitUpTo and call
  // `done` on the caller.
  void CommitPipelined(uint64_t lsn, commitlog::Completion done);

  // Stops the background flusher, then shuts the log down (see
  // commitlog::CommitLog::Shutdown). Idempotent.
  void Shutdown();

  // The rest is the shared log's (src/commitlog/commit_log.h).
  void Crash(uint64_t seed) { log_.Crash(seed); }
  RecoveryResult Recover() { return log_.Recover(); }
  bool crashed() const { return log_.crashed(); }
  bool wedged() const { return log_.wedged(); }
  bool shutdown() const { return log_.shutdown(); }
  void set_crash_seed(uint64_t seed) { log_.set_crash_seed(seed); }
  CommitMode commit_mode() const { return log_.commit_mode(); }
  uint64_t flushed_lsn() const { return log_.flushed_lsn(); }
  uint64_t written_lsn() const { return log_.written_lsn(); }
  uint64_t next_lsn() const { return log_.next_lsn(); }
  size_t device_record_count() const { return log_.device_record_count(); }
  size_t durable_record_count() const { return log_.durable_record_count(); }
  RedoLogStats stats() const { return log_.stats(); }

 private:
  void FlusherLoop();
  void StopFlusher();

  const FlushPolicy policy_;
  const double flusher_period_us_;
  commitlog::CommitLog log_;
  std::atomic<bool> stop_{false};
  std::thread flusher_;
};

}  // namespace minidb

#endif  // SRC_MINIDB_REDO_LOG_H_

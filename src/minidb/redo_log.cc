#include "src/minidb/redo_log.h"

#include <algorithm>
#include <utility>

#include "src/vprof/probe.h"

namespace minidb {

namespace {
vprof::ProbeSite g_log_write_up_to{"log_write_up_to"};
vprof::ProbeSite g_fil_flush{"fil_flush"};
constexpr commitlog::Traits kRedoTraits{.failpoint_prefix = "redo",
                                        .block_bytes = 512,
                                        .wait_probe = nullptr,
                                        .write_probe = nullptr,
                                        .fsync_probe = &g_fil_flush,
                                        .round_probe = &g_log_write_up_to};
}  // namespace

RedoLog::RedoLog(FlushPolicy policy, simio::Disk* disk,
                 double flusher_period_us, CommitMode mode)
    : policy_(policy),
      flusher_period_us_(flusher_period_us),
      log_(kRedoTraits, disk, mode) {
  if (policy_ != FlushPolicy::kEager) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

RedoLog::~RedoLog() { StopFlusher(); }

LogStatus RedoLog::CommitUpTo(uint64_t lsn) {
  vprof::ScopedProbe probe(g_log_write_up_to);
  if (policy_ == FlushPolicy::kEager) {
    return log_.CommitUpTo(lsn);
  }
  const LogStatus status = log_.EntryStatus();
  if (status != LogStatus::kOk || policy_ == FlushPolicy::kLazyWrite) {
    return status;  // kLazyWrite: nothing on the commit path
  }
  // kLazyFlush: write (cheap) on the commit path, defer the fsync.
  return log_.WriteBatch(/*do_fsync=*/false, /*background=*/false);
}

void RedoLog::CommitPipelined(uint64_t lsn, commitlog::Completion done) {
  if (policy_ == FlushPolicy::kEager) {
    log_.CommitPipelined(lsn, std::move(done));
    return;
  }
  done(CommitUpTo(lsn));  // a lazy policy does not wait for the fsync
}

void RedoLog::Shutdown() {
  // The flusher stops first so it does not interleave with the final flush.
  StopFlusher();
  log_.Shutdown();
}

void RedoLog::StopFlusher() {
  if (!stop_.exchange(true, std::memory_order_acq_rel) && flusher_.joinable()) {
    flusher_.join();
  }
}

void RedoLog::FlusherLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep in short ticks so shutdown is prompt even with long periods.
    double slept = 0.0;
    while (slept < flusher_period_us_ && !stop_.load(std::memory_order_acquire)) {
      const double tick = std::min(1000.0, flusher_period_us_ - slept);
      simio::SleepUs(tick);
      slept += tick;
    }
    if (stop_.load(std::memory_order_acquire) || log_.crashed() ||
        log_.wedged()) {
      continue;  // exits, or idles until Recover()
    }
    if (log_.flushed_lsn() < log_.next_lsn() - 1) {
      log_.WriteBatch(/*do_fsync=*/true, /*background=*/true);
    }
  }
}

}  // namespace minidb

// The durable group-commit log both engines run on: minidb's redo log
// (log_write_up_to / fil_flush, paper Table 4) and each of minipg's WAL units
// (XLogFlush / LWLockAcquireOrWait, Table 6). The engines wrap it in thin
// policy layers (src/minidb/redo_log.h, src/minipg/wal.h) and fix what
// differs between them in a Traits value.
//
// Group commit (CommitMode::kGroupCommit): a committer whose LSN is not yet
// durable takes the election mutex; the first to find no flush in progress
// becomes leader and writes+fsyncs the whole pending batch. Followers wait
// on one of two ping-pong events indexed by flush-round parity: the leader
// finishing round R resets the event for R+1, then sets the event for R
// (InnoDB os_event + sig_count style), so a follower never misses its
// wake-up; a bounded wait backstops one that sleeps through two whole
// rounds. CommitMode::kExclusive is the pre-scale-out baseline: every
// committer performs its own write+fsync.
//
// Pipelined commit (CommitPipelined, group commit only): flush pipelining
// as Aether calls it. A committer registers (lsn, completion) instead of
// waiting. If a pipelined leader is active it returns at once; otherwise it
// becomes that leader and drives rounds through the same election until no
// completion is pending, running after each round, in LSN order, the
// completions that round settled. A completion runs on behalf of the
// registering thread's interval, behind a completion hand-off edge
// (vprof::ResumedInterval), so the profiler walks the leader's write and
// fsync into the registrant's critical path. CommitUpTo stays synchronous:
// the closed-loop callers keep their wait.
//
// Lock rule: one write mutex serializes the batch swap, the device write, the
// fsync, the device image, Crash, Recover and Shutdown. So Crash waits for an
// in-flight leader, and no pre-crash batch can land after Recover and ack a
// fresh record that reuses its LSN. Appends take only the insert-buffer
// mutex, and the election only the election mutex.
//
// Fault model: every record carries a checksum. A crash (explicit, or at the
// failpoints "<prefix>/crash_before_write", "/crash_after_write",
// "/crash_after_fsync" and "/crash_mid_batch", whose optional trigger value
// is the byte offset into the batch that reached the device cache) drops
// buffered records and keeps a seeded-random prefix of the
// written-but-unsynced tail, whose last record may be torn. Recover()
// truncates at the first bad checksum. A CommitUpTo that returned kOk is
// never lost, and neither is an LSN a pipelined completion saw kOk for;
// batches are written in LSN order, so recovery exposes a prefix of whole
// records in either mode. A short device write lands the records before
// the tear whole; the flush rewrites the torn record whole, then the rest,
// so no record is acked before all of it reached the device. fsyncgate: a
// FAILED fsync drops the unsynced window, so it wedges the log (kWedged)
// until Recover() — a later successful fsync must never ack records that
// were dropped.
#ifndef SRC_COMMITLOG_COMMIT_LOG_H_
#define SRC_COMMITLOG_COMMIT_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/simio/disk.h"
#include "src/vprof/registry.h"
#include "src/vprof/runtime.h"
#include "src/vprof/sync.h"

namespace commitlog {

// Who performs the log I/O for a commit (see file comment).
enum class CommitMode {
  kExclusive,    // per-commit write+fsync, serialized on the write mutex
  kGroupCommit,  // elected leader batches; followers wait on an event
};

// Outcome of a durability request.
enum class Status : uint8_t {
  kOk,        // durable
  kIoError,   // the log device failed the write; nothing landed — retryable
  kWedged,    // a failed fsync dropped the unsynced window (fsyncgate);
              // every commit fails until Recover()
  kCrashed,   // the log crashed; Recover() required
  kShutdown,  // the log was shut down; no further commits
};

// One log record as recovery sees it.
struct Record {
  uint64_t end_lsn = 0;  // LSN of the record's last byte
  uint64_t bytes = 0;
  uint32_t checksum = 0;
};

// FNV-1a over a record's header fields; recovery verifies it to detect torn
// tails.
uint32_t RecordChecksum(uint64_t end_lsn, uint64_t bytes);

struct RecoveryResult {
  uint64_t recovered_lsn = 0;      // log tail after truncation
  uint64_t records_recovered = 0;  // records that passed checksum
  uint64_t torn_truncated = 0;     // device-tail records dropped by checksum
  uint64_t records_lost = 0;       // records that never survived the crash
};

struct Stats {
  uint64_t appends = 0;
  uint64_t commit_waits = 0;  // commits that waited for another's flush
  uint64_t leader_flushes = 0;
  uint64_t background_flushes = 0;
  uint64_t batched_records = 0;  // records written to the device by flushes
  uint64_t io_errors = 0;        // disk errors surfaced on the flush path
  uint64_t wedges = 0;           // failed fsyncs that wedged the log
  uint64_t crashes = 0;
};

// Per-engine constants. A null probe site means the engine has no probe at
// that point.
struct Traits {
  const char* failpoint_prefix;   // "<prefix>/crash_before_write", ...
  uint64_t block_bytes;           // writes round up to whole blocks
  vprof::ProbeSite* wait_probe;   // the election and the wait for the log
  vprof::ProbeSite* write_probe;  // the batch write plus fsync
  vprof::ProbeSite* fsync_probe;  // the fsync alone
  vprof::ProbeSite* round_probe = nullptr;  // each pipelined leader's round
};

// The outcome callback of a pipelined commit (CommitLog::CommitPipelined).
// Runs exactly once.
using Completion = std::function<void(Status)>;

class CommitLog {
 public:
  CommitLog(const Traits& traits, simio::Disk* disk, CommitMode mode);

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  // Buffers a record of `bytes`; returns its end LSN, or 0 while the log is
  // crashed, wedged or shut down.
  uint64_t Append(uint64_t bytes);

  // Makes the log durable up to `lsn` in the log's CommitMode. kOk is the
  // durability acknowledgment the recovery invariants protect.
  Status CommitUpTo(uint64_t lsn);

  // Pipelined group commit (see file comment): `done` runs with kOk once
  // `lsn` is durable, or with the typed status of the round that failed it
  // — kCrashed also when the log was recovered since the registration,
  // which may have reused the LSN. It runs on whichever thread leads the
  // round: the caller, which then leads until nothing is pending, or the
  // active leader, in which case this returns at once. A log that refuses
  // entry runs `done` on the caller; under kExclusive the caller commits
  // synchronously and runs `done`.
  void CommitPipelined(uint64_t lsn, Completion done);

  // What the entry points refuse with: kCrashed, kWedged, kShutdown, or kOk.
  Status EntryStatus() const;

  // Writes the pending batch and, when `do_fsync`, syncs it; `background`
  // picks the stats counter. For lazy policies and background flushers.
  Status WriteBatch(bool do_fsync, bool background);

  // Freezes the log (Append returns 0, CommitUpTo kCrashed), drops buffered
  // records, and keeps a `seed`-deterministic prefix of the
  // written-but-unsynced tail, possibly ending in a torn record.
  void Crash(uint64_t seed);

  // Scans the device image, truncates at the first checksum mismatch, and
  // re-opens the log at the recovered LSN. Clears the crashed and wedged
  // states; a no-op report while neither is set.
  RecoveryResult Recover();

  // Refuses new Append/CommitUpTo/CommitPipelined (kShutdown), then
  // writes+fsyncs the pending batch unless crashed or wedged. Committers
  // already inside CommitUpTo drain normally, and a pipelined leader settles
  // every completion registered before the gate: the gate is only at the
  // entry points. Idempotent.
  void Shutdown();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }
  bool shutdown() const { return shutdown_.load(std::memory_order_acquire); }

  // Seed for crashes injected through the crash failpoints.
  void set_crash_seed(uint64_t seed) {
    crash_seed_.store(seed, std::memory_order_relaxed);
  }

  CommitMode commit_mode() const { return mode_; }
  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }
  uint64_t written_lsn() const {
    return written_lsn_.load(std::memory_order_acquire);
  }
  uint64_t flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }
  // Committers currently waiting for another's flush.
  int waiters() const { return waiters_.load(std::memory_order_relaxed); }

  // Device-image introspection for recovery tests.
  size_t device_record_count() const;
  size_t durable_record_count() const;

  // Relaxed-atomic counters: the commit path takes no stats lock.
  Stats stats() const;

 private:
  Status GroupCommitUpTo(uint64_t lsn);
  Status ExclusiveCommitUpTo(uint64_t lsn);
  Status Health() const;  // kCrashed, kWedged or kOk
  // Health(), or kCrashed when `lsn` was lost in a crash.
  Status Refusal(uint64_t lsn) const;
  // True when the failpoint "<prefix><point>" fires; `value` receives its
  // trigger value.
  bool Fires(const char* point, uint64_t* value = nullptr) const;
  // WriteBatch with write_mu_ held.
  Status WriteBatchLocked(bool do_fsync, bool background);
  // Appends records [first, batch.size()) to the device image, tearing the
  // record that crosses `intact_bytes` (short write); returns how many
  // landed whole. Requires write_mu_.
  size_t AppendBatchToDevice(const std::vector<Record>& batch, size_t first,
                             uint64_t intact_bytes);
  // Puts records [first, batch.size()) back at the front of the insert
  // buffer, where the next flush finds them.
  void RestoreToBuffer(const std::vector<Record>& batch, size_t first);
  // The pipelined leader's loop: rounds until no completion is pending.
  void LeadPipelinedRounds();
  void CrashLocked(uint64_t seed);  // requires write_mu_
  // Wakes followers of every round so they re-check the log's state.
  void WakeAll();

  const Traits traits_;
  const CommitMode mode_;
  simio::Disk* disk_;

  std::atomic<uint64_t> next_lsn_{1};
  std::atomic<uint64_t> written_lsn_{0};
  std::atomic<uint64_t> flushed_lsn_{0};
  std::atomic<int> waiters_{0};

  // The insert buffer. A plain mutex: vprof::Mutex would record the
  // releasing thread on every append while tracing.
  std::mutex buffer_mu_;
  std::vector<Record> buffer_records_;

  vprof::Mutex mu_;  // the election: guards the two fields below
  bool flush_in_progress_ = false;
  uint64_t flush_round_ = 0;
  // Ping-pong follower wake-up events, indexed by flush-round parity.
  vprof::Event flush_events_[2];

  // A commit registered with the pipelined leader.
  struct PendingCommit {
    uint64_t lsn = 0;
    uint64_t incarnation = 0;  // incarnation_ at the registration
    vprof::HandOff handoff;    // the registrant's interval
    Completion done;
  };
  std::mutex pipe_mu_;  // guards the two fields below
  bool pipe_leader_ = false;
  std::vector<PendingCommit> pipe_pending_;
  // Recoveries so far. Recover reopens the log at the recovered LSN, so a
  // later LSN can name a new record: a pending commit from an earlier
  // incarnation is never acked.
  std::atomic<uint64_t> incarnation_{0};

  // See the lock rule in the file comment; also guards the device image.
  mutable std::mutex write_mu_;
  std::vector<Record> device_records_;
  size_t durable_records_ = 0;  // prefix of device_records_ fsync'd
  uint64_t crash_lost_records_ = 0;

  std::atomic<bool> crashed_{false};
  std::atomic<bool> wedged_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> crash_seed_{0x5EED5EEDull};

  std::atomic<uint64_t> stat_appends_{0};
  std::atomic<uint64_t> stat_commit_waits_{0};
  std::atomic<uint64_t> stat_leader_flushes_{0};
  std::atomic<uint64_t> stat_background_flushes_{0};
  std::atomic<uint64_t> stat_batched_records_{0};
  std::atomic<uint64_t> stat_io_errors_{0};
  std::atomic<uint64_t> stat_wedges_{0};
  std::atomic<uint64_t> stat_crashes_{0};
};

}  // namespace commitlog

#endif  // SRC_COMMITLOG_COMMIT_LOG_H_

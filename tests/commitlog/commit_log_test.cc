// The group-commit log both engines run on (src/commitlog/), tested once and
// run through both engines' wrappers: minidb's RedoLog under
// FlushPolicy::kEager, and a standalone minipg::WalUnit. What only one
// engine has stays in tests/minidb (lazy flush policies, the background
// flusher) and tests/minipg (unit placement, multi-unit crashes).
//
// Invariants under test: LSNs advance, a commit returns once its record is
// durable, and group commit batches concurrent commits; an LSN acknowledged
// kOk is never lost, whatever commit-path crash point fires; recovery
// truncates at the first bad checksum, so it exposes a prefix of whole
// records, in either CommitMode; a write error is retryable, and a failed
// fsync wedges the log until Recover(). The pipelined commit keeps the same
// invariants for the outcomes its completions receive.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/commitlog/commit_log.h"
#include "src/fault/failpoint.h"
#include "src/minidb/redo_log.h"
#include "src/minipg/wal.h"
#include "src/statkit/rng.h"
#include "tests/commitlog/fast_disk.h"

namespace {

using commitlog::CommitMode;
using commitlog::RecoveryResult;
using commitlog::Stats;
using commitlog::Status;

// Holds the disk a RedoLog writes to. A base, so that the disk is built
// before the log and destroyed after it.
struct DiskOwner {
  explicit DiskOwner(const simio::DiskConfig& config) : disk(config) {}
  simio::Disk disk;
};

// minidb's redo log under kEager, on its own disk.
class RedoAdapter : DiskOwner, public minidb::RedoLog {
 public:
  static constexpr const char* kName = "RedoLog";
  static constexpr const char* kFailpointPrefix = "redo";

  explicit RedoAdapter(const simio::DiskConfig& config,
                       CommitMode mode = CommitMode::kGroupCommit)
      : DiskOwner(config),
        RedoLog(minidb::FlushPolicy::kEager, &disk,
                /*flusher_period_us=*/1e6, mode) {}

  Status Commit(uint64_t lsn) { return CommitUpTo(lsn); }
  uint64_t fsyncs() const { return disk.fsyncs(); }
};

// A standalone WAL unit, which owns its disk.
class WalAdapter : public minipg::WalUnit {
 public:
  static constexpr const char* kName = "WalUnit";
  static constexpr const char* kFailpointPrefix = "wal";

  explicit WalAdapter(const simio::DiskConfig& config,
                      CommitMode mode = CommitMode::kGroupCommit)
      : WalUnit(config, mode) {}

  uint64_t Append(uint64_t bytes) { return Insert(bytes); }
  Status Commit(uint64_t lsn) { return Flush(lsn); }
  void CommitPipelined(uint64_t lsn, commitlog::Completion done) {
    FlushPipelined(lsn, std::move(done));
  }
  uint64_t next_lsn() const { return insert_lsn(); }
  uint64_t fsyncs() const { return disk().fsyncs(); }
  // The unit's counters under the core's names.
  Stats stats() const {
    const minipg::WalStats s = WalUnit::stats();
    return Stats{.appends = s.inserts,
                 .commit_waits = s.flush_waits,
                 .leader_flushes = s.flushes_performed,
                 .batched_records = s.batched_records,
                 .io_errors = s.io_errors,
                 .wedges = s.wedges,
                 .crashes = s.crashes};
  }
};

template <typename Log>
class CommitLogTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetFailpoints(); }
  void TearDown() override { ResetFailpoints(); }

  static void ResetFailpoints() {
    fault::DeactivateAll();
    fault::ResetCounters();
  }

  // The log's commit-path failpoint `point`, e.g. "redo/crash_after_write".
  static std::string Point(const char* point) {
    return std::string(Log::kFailpointPrefix) + "/" + point;
  }
};

struct AdapterName {
  template <typename Log>
  static std::string GetName(int) {
    return Log::kName;
  }
};

using Adapters = ::testing::Types<RedoAdapter, WalAdapter>;
TYPED_TEST_SUITE(CommitLogTest, Adapters, AdapterName);

constexpr CommitMode kModes[] = {CommitMode::kGroupCommit,
                                 CommitMode::kExclusive};

const char* ModeName(CommitMode mode) {
  return mode == CommitMode::kGroupCommit ? "GroupCommit" : "Exclusive";
}

TYPED_TEST(CommitLogTest, AppendAdvancesLsn) {
  TypeParam log(FastDisk("log_lsn"));
  const uint64_t a = log.Append(100);
  const uint64_t b = log.Append(50);
  EXPECT_LT(a, b);
  EXPECT_EQ(log.next_lsn(), 151u);
}

TYPED_TEST(CommitLogTest, CommitMakesDurable) {
  TypeParam log(FastDisk("log_durable"));
  const uint64_t lsn = log.Append(256);
  EXPECT_LT(log.flushed_lsn(), lsn);
  log.Commit(lsn);
  EXPECT_GE(log.flushed_lsn(), lsn);
  EXPECT_GE(log.fsyncs(), 1u);
  EXPECT_GE(log.stats().leader_flushes, 1u);
}

TYPED_TEST(CommitLogTest, CommitOfDurableLsnDoesNoIo) {
  TypeParam log(FastDisk("log_idempotent"));
  const uint64_t lsn = log.Append(64);
  log.Commit(lsn);
  const uint64_t syncs = log.fsyncs();
  log.Commit(lsn);
  EXPECT_EQ(log.fsyncs(), syncs);
}

// Group commit batches: 200 concurrent commits take strictly fewer fsyncs.
TYPED_TEST(CommitLogTest, GroupCommitBatchesConcurrentCommits) {
  TypeParam log(FastDisk("log_batch"));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const uint64_t lsn = log.Append(128);
        log.Commit(lsn);
        ASSERT_GE(log.flushed_lsn(), lsn);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(log.stats().appends, 200u);
  EXPECT_LT(log.fsyncs(), 200u);
  EXPECT_GE(log.fsyncs(), 1u);
}

// At 1 and 4 committers: each committer's LSNs strictly increase, a commit
// returns only once its LSN is durable, and the flushed LSN never passes the
// last appended one. With 4, group commit flushes fewer times than it
// appends.
TYPED_TEST(CommitLogTest, LsnsAndDurabilityInvariants) {
  for (const int committers : {1, 4}) {
    SCOPED_TRACE(committers);
    TypeParam log(FastDisk("log_property"));
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < committers; ++t) {
      threads.emplace_back([&] {
        uint64_t previous = 0;
        for (int i = 0; i < 120; ++i) {
          const uint64_t lsn = log.Append(64);
          if (lsn <= previous) {
            violation.store(true);
          }
          previous = lsn;
          log.Commit(lsn);
          if (log.flushed_lsn() < lsn ||
              log.flushed_lsn() > log.next_lsn() - 1) {
            violation.store(true);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_FALSE(violation.load());
    const Stats stats = log.stats();
    EXPECT_EQ(stats.appends, static_cast<uint64_t>(committers) * 120u);
    if (committers > 1) {
      EXPECT_LT(stats.leader_flushes, stats.appends);
    }
  }
}

// Recovery finds torn records by their checksum, which changes with either
// header field. Both engines' checksum names alias commitlog's.
TYPED_TEST(CommitLogTest, RecordChecksumDetectsHeaderCorruption) {
  TypeParam log(FastDisk("log_checksum"));
  const uint64_t lsn = log.Append(128);
  const uint32_t good = commitlog::RecordChecksum(lsn, 128);
  EXPECT_NE(good, commitlog::RecordChecksum(lsn + 1, 128));
  EXPECT_NE(good, commitlog::RecordChecksum(lsn, 129));
}

// Every acked commit survives a crash injected at each commit-path
// failpoint.
TYPED_TEST(CommitLogTest, AckedLsnSurvivesEveryCrashPoint) {
  for (const char* point : {"crash_before_write", "crash_after_write",
                            "crash_mid_batch", "crash_after_fsync"}) {
    SCOPED_TRACE(point);
    TypeParam log(FastDisk("log_crash"));
    log.set_crash_seed(99);

    uint64_t last_acked = 0;
    for (int i = 0; i < 5; ++i) {
      const uint64_t lsn = log.Append(100);
      ASSERT_NE(lsn, 0u);
      if (log.Commit(lsn) == Status::kOk) {
        last_acked = lsn;
      }
    }
    ASSERT_GT(last_acked, 0u);

    // The next commit crashes the log somewhere in its write+fsync path.
    fault::Activate(TestFixture::Point(point), fault::Trigger::OneShot());
    const uint64_t doomed = log.Append(100);
    ASSERT_NE(doomed, 0u);
    EXPECT_EQ(log.Commit(doomed), Status::kCrashed);
    EXPECT_TRUE(log.crashed());
    // A crash after the fsync leaves the record durable: an ack implies
    // durable, never the reverse.
    if (std::string(point) == "crash_after_fsync") {
      last_acked = doomed;
    }
    fault::Deactivate(TestFixture::Point(point));

    // While crashed, the log refuses work.
    EXPECT_EQ(log.Append(50), 0u);
    EXPECT_EQ(log.Commit(last_acked), Status::kCrashed);

    const RecoveryResult recovered = log.Recover();
    EXPECT_FALSE(log.crashed());
    EXPECT_GE(recovered.recovered_lsn, last_acked)
        << "acked LSN lost across crash at " << point;
    EXPECT_EQ(log.flushed_lsn(), recovered.recovered_lsn);

    // The log is usable again after recovery.
    const uint64_t fresh = log.Append(64);
    ASSERT_NE(fresh, 0u);
    EXPECT_GT(fresh, recovered.recovered_lsn);
    EXPECT_EQ(log.Commit(fresh), Status::kOk);
  }
}

// A crash between the write and the fsync keeps a seeded prefix of the
// written batch, possibly ending in a torn record. The same seed truncates
// the same way.
TYPED_TEST(CommitLogTest, TornTailTruncationIsSeedDeterministic) {
  constexpr uint64_t kRecords = 20;
  auto run = [](uint64_t crash_seed) {
    TypeParam log(FastDisk("log_torn"));
    log.set_crash_seed(crash_seed);
    for (uint64_t i = 0; i < kRecords; ++i) {
      log.Append(100);
    }
    fault::ScopedFailpoint fp(TestFixture::Point("crash_after_write"),
                              fault::Trigger::OneShot());
    EXPECT_EQ(log.Commit(log.next_lsn() - 1), Status::kCrashed);
    EXPECT_EQ(log.durable_record_count(), 0u);  // written, never synced
    return log.Recover();
  };

  const RecoveryResult a = run(77);
  const RecoveryResult b = run(77);
  EXPECT_EQ(a.recovered_lsn, b.recovered_lsn);
  EXPECT_EQ(a.records_recovered, b.records_recovered);
  EXPECT_EQ(a.torn_truncated, b.torn_truncated);
  EXPECT_EQ(a.records_lost, b.records_lost);
  EXPECT_LE(a.records_recovered, kRecords);
  // Survivors and losses account for every record.
  EXPECT_EQ(a.records_recovered + a.records_lost, kRecords);
}

// The outcomes pipelined commits' completions received, in the order they
// ran.
class Outcomes {
 public:
  commitlog::Completion For(uint64_t lsn) {
    return [this, lsn](Status status) {
      std::lock_guard<std::mutex> lock(mu_);
      done_.emplace_back(lsn, status);
    };
  }
  std::vector<std::pair<uint64_t, Status>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(done_);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<uint64_t, Status>> done_;
};

// Commits `lsn` synchronously, or through the pipelined commit, which on a
// log with no other committer leads its own round and completes before it
// returns.
template <typename Log>
Status CommitVia(Log& log, bool pipelined, uint64_t lsn) {
  if (!pipelined) {
    return log.Commit(lsn);
  }
  Outcomes outcomes;
  log.CommitPipelined(lsn, outcomes.For(lsn));
  const auto done = outcomes.Take();
  EXPECT_EQ(done.size(), 1u);
  return done.empty() ? Status::kCrashed : done[0].second;
}

// A short device write, with no crash failpoint, lands the records before
// the tear whole; the flush rewrites the torn record whole, then the rest,
// before it acks. So the log's invariant holds: every LSN acked kOk is at
// or below the recovered LSN.
TYPED_TEST(CommitLogTest, ShortDiskWriteNeverAcksATornRecord) {
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "synchronous");
    TypeParam log(FastDisk("log_shortwrite"));
    std::vector<uint64_t> acked;
    auto commit = [&](uint64_t lsn) {
      const Status status = CommitVia(log, pipelined, lsn);
      if (status == Status::kOk) {
        acked.push_back(lsn);
      }
      return status;
    };
    EXPECT_EQ(commit(log.Append(600)), Status::kOk);
    {
      // Every write reaches the device only 1,000 bytes in: the next
      // batch's first record whole, 400 bytes of its second.
      fault::ScopedFailpoint fp("log_shortwrite/torn_write",
                                fault::Trigger::AlwaysWithValue(1000));
      for (int i = 0; i < 4; ++i) {
        log.Append(600);
      }
      EXPECT_EQ(commit(log.next_lsn() - 1), Status::kOk);
    }
    EXPECT_EQ(commit(log.Append(600)), Status::kOk);
    log.Crash(/*seed=*/5);
    const RecoveryResult recovered = log.Recover();
    ASSERT_EQ(acked.size(), 3u);
    for (const uint64_t lsn : acked) {
      EXPECT_LE(lsn, recovered.recovered_lsn) << "acked LSN lost";
    }
    EXPECT_EQ(recovered.records_recovered, 6u);
    EXPECT_EQ(recovered.torn_truncated, 0u);

    // The log still works.
    const uint64_t fresh = log.Append(32);
    ASSERT_NE(fresh, 0u);
    EXPECT_EQ(commit(fresh), Status::kOk);
  }
}

// A device that transfers nothing whole: the flush hands the batch back as a
// write error instead of acking or spinning, and a later commit lands it.
TYPED_TEST(CommitLogTest, ShortWriteWithNoWholeRecordIsAWriteError) {
  TypeParam log(FastDisk("log_shortnone"));
  const uint64_t lsn = log.Append(600);
  {
    fault::ScopedFailpoint fp("log_shortnone/torn_write",
                              fault::Trigger::AlwaysWithValue(100));
    EXPECT_EQ(log.Commit(lsn), Status::kIoError);
  }
  EXPECT_FALSE(log.crashed());
  EXPECT_EQ(log.Commit(lsn), Status::kOk);
  log.Crash(/*seed=*/5);
  const RecoveryResult recovered = log.Recover();
  EXPECT_EQ(recovered.recovered_lsn, lsn);
  EXPECT_EQ(recovered.records_recovered, 1u);
  EXPECT_EQ(recovered.torn_truncated, 0u);
}

// A device write error is not a crash: the batch goes back to the buffer
// and a later commit lands it.
TYPED_TEST(CommitLogTest, WriteErrorIsRetryableWithoutLoss) {
  TypeParam log(FastDisk("log_ioerr"));
  const uint64_t lsn = log.Append(100);
  {
    fault::ScopedFailpoint fp("log_ioerr/write_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(log.Commit(lsn), Status::kIoError);
  }
  EXPECT_FALSE(log.crashed());
  EXPECT_EQ(log.Commit(lsn), Status::kOk);
  EXPECT_EQ(log.flushed_lsn(), lsn);
  EXPECT_EQ(log.stats().io_errors, 1u);
}

// fsyncgate: a failed fsync is not retryable. It dropped the unsynced
// window, so the log wedges; were it to stay open, the next successful fsync
// would ack commits whose records never reached stable storage.
TYPED_TEST(CommitLogTest, FailedFsyncWedgesInsteadOfSilentlyAcking) {
  TypeParam log(FastDisk("log_wedge"));
  const uint64_t lsn = log.Append(100);
  ASSERT_EQ(log.Commit(lsn), Status::kOk);  // durable baseline

  const uint64_t lsn2 = log.Append(100);
  {
    fault::ScopedFailpoint fp("log_wedge/fsync_error",
                              fault::Trigger::OneShot());
    EXPECT_EQ(log.Commit(lsn2), Status::kWedged);
  }
  EXPECT_TRUE(log.wedged());
  // The failpoint is gone, so a bare retry would find a working fsync. The
  // wedge keeps refusing anyway: lsn2's record is no longer on the device.
  EXPECT_EQ(log.Commit(lsn2), Status::kWedged);
  EXPECT_EQ(log.Append(64), 0u);
  EXPECT_EQ(log.stats().wedges, 1u);

  // Recovery reopens at the durable prefix: the first commit survives, the
  // wedged window, never acked, does not.
  const RecoveryResult recovered = log.Recover();
  EXPECT_FALSE(log.wedged());
  EXPECT_EQ(recovered.recovered_lsn, lsn);
  EXPECT_LT(recovered.recovered_lsn, lsn2);

  const uint64_t fresh = log.Append(80);
  ASSERT_NE(fresh, 0u);
  EXPECT_EQ(log.Commit(fresh), Status::kOk);
}

// Committers waiting inside group commit observe an injected crash instead
// of hanging, and none receives a false ack.
TYPED_TEST(CommitLogTest, WaitersWakeOnCrash) {
  TypeParam log(FastDisk("log_waiters"));
  log.set_crash_seed(3);
  fault::Activate(TestFixture::Point("crash_before_write"),
                  fault::Trigger::OneShot());
  std::atomic<int> crashed_acks{0};
  std::vector<std::thread> committers;
  for (int t = 0; t < 4; ++t) {
    committers.emplace_back([&] {
      const uint64_t lsn = log.Append(100);
      if (lsn == 0 || log.Commit(lsn) == Status::kCrashed) {
        crashed_acks.fetch_add(1);
      }
    });
  }
  for (auto& t : committers) {
    t.join();
  }
  EXPECT_TRUE(log.crashed());
  EXPECT_EQ(crashed_acks.load(), 4);
  EXPECT_EQ(log.Recover().recovered_lsn, 0u);  // nothing was ever durable
}

// A crash while a leader is stalled in the device write waits for that
// leader: its pre-crash batch cannot land after Recover, so a fresh record
// never reuses its LSN and an acked commit survives the next crash.
TYPED_TEST(CommitLogTest, CrashDuringFlushLosesNoAck) {
  simio::DiskConfig config = FastDisk("log_stall");
  config.stall_us = 200000.0;
  TypeParam log(config);
  const uint64_t a = log.Append(100);
  ASSERT_NE(a, 0u);

  fault::Activate("log_stall/stall", fault::Trigger::OneShot());
  std::thread leader([&] { log.Commit(a); });
  while (fault::TriggerCount("log_stall/stall") != 1) {
    std::this_thread::yield();
  }
  log.Crash(/*seed=*/3);
  log.Recover();
  leader.join();

  const uint64_t b = log.Append(100);
  ASSERT_NE(b, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(log.Commit(b), Status::kOk);
  log.Crash(/*seed=*/4);
  EXPECT_EQ(log.Recover().records_lost, 0u);
}

// Pipelined commits from several threads: every completion runs exactly
// once, with kOk, after its LSN is durable, and the rounds batch them.
TYPED_TEST(CommitLogTest, PipelinedCommitsSettleEveryCompletionOnce) {
  TypeParam log(FastDisk("log_pipe"));
  Outcomes outcomes;
  std::atomic<bool> early{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const uint64_t lsn = log.Append(128);
        log.CommitPipelined(lsn, [&, lsn, done = outcomes.For(lsn)](Status s) {
          if (log.flushed_lsn() < lsn) {
            early.store(true);
          }
          done(s);
        });
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // A registrant returns at once only while a leader runs, and the leader
  // returns once nothing is pending: with every committer gone, every
  // completion has run.
  const auto done = outcomes.Take();
  ASSERT_EQ(done.size(), 200u);
  std::vector<uint64_t> lsns;
  for (const auto& [lsn, status] : done) {
    EXPECT_EQ(status, Status::kOk);
    lsns.push_back(lsn);
  }
  std::sort(lsns.begin(), lsns.end());
  EXPECT_EQ(std::unique(lsns.begin(), lsns.end()), lsns.end());
  EXPECT_FALSE(early.load()) << "a completion ran before its LSN was durable";
  EXPECT_LT(log.fsyncs(), 200u);
}

// A stalled round with pipelined commits registered behind it: the leader
// thread leads `first`'s round and then settles the commits the test
// thread registers while its device write stalls.
template <typename Log>
struct StalledPipeline {
  StalledPipeline(Log& log, const std::string& scope, int behind) {
    fault::Activate(scope + "/stall", fault::Trigger::OneShot());
    lsns.push_back(log.Append(100));
    leader = std::thread(
        [&log, this] { log.CommitPipelined(lsns[0], outcomes.For(lsns[0])); });
    while (fault::TriggerCount(scope + "/stall") != 1) {
      std::this_thread::yield();
    }
    for (int i = 0; i < behind; ++i) {
      lsns.push_back(log.Append(100));
      log.CommitPipelined(lsns.back(), outcomes.For(lsns.back()));
    }
  }
  // Joins the leader, which returns once every completion has run.
  std::vector<std::pair<uint64_t, Status>> Settle() {
    leader.join();
    return outcomes.Take();
  }

  std::vector<uint64_t> lsns;
  Outcomes outcomes;
  std::thread leader;
};

simio::DiskConfig StallingDisk(const std::string& scope) {
  simio::DiskConfig config = FastDisk(scope);
  config.stall_us = 200000.0;
  return config;
}

// A crash with completions pending: none reports kOk for an LSN above the
// recovered one, and each of the others reports the crash.
TYPED_TEST(CommitLogTest, PipelinedCrashNeverAcksPastRecovery) {
  TypeParam log(StallingDisk("log_pipe_crash"));
  log.set_crash_seed(7);
  StalledPipeline<TypeParam> pipeline(log, "log_pipe_crash", 4);
  log.Crash(/*seed=*/7);  // waits for the stalled round's write and fsync
  const RecoveryResult recovered = log.Recover();
  const auto done = pipeline.Settle();
  ASSERT_EQ(done.size(), 5u);
  for (const auto& [lsn, status] : done) {
    if (status == Status::kOk) {
      EXPECT_LE(lsn, recovered.recovered_lsn) << "acked LSN lost";
    } else {
      EXPECT_EQ(status, Status::kCrashed);
    }
  }
}

// A failed fsync wedges the log: the round's own commit and every commit
// pending behind it get kWedged, none kOk.
TYPED_TEST(CommitLogTest, PipelinedFailedFsyncWedgesEveryPendingCompletion) {
  TypeParam log(StallingDisk("log_pipe_wedge"));
  fault::Activate("log_pipe_wedge/fsync_error", fault::Trigger::OneShot());
  StalledPipeline<TypeParam> pipeline(log, "log_pipe_wedge", 3);
  const auto done = pipeline.Settle();
  ASSERT_EQ(done.size(), 4u);
  for (const auto& [lsn, status] : done) {
    EXPECT_EQ(status, Status::kWedged) << "lsn " << lsn;
  }
  EXPECT_TRUE(log.wedged());
  EXPECT_EQ(log.Recover().recovered_lsn, 0u);  // nothing was ever durable
}

// A write error fails the round's commit with kIoError and puts its record
// back; the next round, led for the commits pending behind it, lands it.
TYPED_TEST(CommitLogTest, PipelinedWriteErrorIsRetriedByTheNextRound) {
  TypeParam log(StallingDisk("log_pipe_ioerr"));
  fault::Activate("log_pipe_ioerr/write_error", fault::Trigger::OneShot());
  StalledPipeline<TypeParam> pipeline(log, "log_pipe_ioerr", 3);
  const auto done = pipeline.Settle();
  ASSERT_EQ(done.size(), 4u);
  for (const auto& [lsn, status] : done) {
    EXPECT_EQ(status,
              lsn == pipeline.lsns[0] ? Status::kIoError : Status::kOk)
        << "lsn " << lsn;
  }
  EXPECT_FALSE(log.crashed());
  EXPECT_EQ(log.flushed_lsn(), pipeline.lsns.back());
  EXPECT_EQ(log.stats().io_errors, 1u);
  log.Crash(/*seed=*/3);
  const RecoveryResult recovered = log.Recover();
  EXPECT_EQ(recovered.recovered_lsn, pipeline.lsns.back());
  EXPECT_EQ(recovered.records_recovered, 4u);
}

// Shutdown while commits are pending behind a stalled round: each was
// registered before the gate, so each gets kOk; a commit after the gate is
// refused on the caller.
TYPED_TEST(CommitLogTest, PipelinedShutdownAcksCommitsRegisteredBeforeIt) {
  TypeParam log(StallingDisk("log_pipe_stop"));
  StalledPipeline<TypeParam> pipeline(log, "log_pipe_stop", 3);
  log.Shutdown();
  const auto done = pipeline.Settle();
  ASSERT_EQ(done.size(), 4u);
  for (const auto& [lsn, status] : done) {
    EXPECT_EQ(status, Status::kOk) << "lsn " << lsn;
  }
  EXPECT_EQ(log.flushed_lsn(), pipeline.lsns.back());
  EXPECT_EQ(CommitVia(log, /*pipelined=*/true, pipeline.lsns.back()),
            Status::kShutdown);
}

// The torn-batch sweeps tear the group-commit leader's batch write at EVERY
// byte offset (the disk's torn_write failpoint carries the offset), then
// lose power before the fsync. The batch's record sizes are irregular, so
// the offsets land at many positions within records.
constexpr uint64_t kBatchSizes[] = {64, 100, 7, 300, 29};
constexpr uint64_t kBatchBytes = std::accumulate(
    std::begin(kBatchSizes), std::end(kBatchSizes), uint64_t{0});

// The sweeps build about 4,000 logs. Only what reaches their disk matters,
// so it takes no time: e^-30 us of service rounds down to no sleep at all.
simio::DiskConfig SweepDisk(const std::string& scope) {
  simio::DiskConfig config = FastDisk(scope);
  config.write_mu = -30.0;
  config.fsync_mu = -30.0;
  config.bytes_per_us = 1e18;
  return config;
}

// The batch records wholly below a tear at `offset`, and their bytes.
struct IntactPrefix {
  size_t records = 0;
  uint64_t bytes = 0;
};

IntactPrefix IntactBelow(uint64_t offset) {
  IntactPrefix prefix;
  for (const uint64_t b : kBatchSizes) {
    if (prefix.bytes + b > offset) {
      break;
    }
    prefix.bytes += b;
    ++prefix.records;
  }
  return prefix;
}

// A crash seed under which the crash keeps every at-risk record, so the tear
// alone decides the recovered boundary. Replicates the core's draw:
// statkit::Rng(seed).NextBelow(at_risk + 1) == at_risk.
uint64_t PickKeepAllSeed(uint64_t at_risk) {
  for (uint64_t seed = 0; seed < 100000; ++seed) {
    statkit::Rng rng(seed);
    if (rng.NextBelow(at_risk + 1) == at_risk) {
      return seed;
    }
  }
  ADD_FAILURE() << "no keep-all seed found for at_risk=" << at_risk;
  return 0;
}

// Commits three records the crash must never touch, then appends the batch
// uncommitted, so that the next commit writes all of it at once. Returns the
// last acked LSN.
template <typename Log>
uint64_t AckThenAppendBatch(Log& log) {
  uint64_t acked = 0;
  for (int i = 0; i < 3; ++i) {
    acked = log.Append(50);
    EXPECT_NE(acked, 0u);
    EXPECT_EQ(log.Commit(acked), Status::kOk);
  }
  for (const uint64_t bytes : kBatchSizes) {
    EXPECT_NE(log.Append(bytes), 0u);
  }
  return acked;
}

// Commits the appended batch with its write torn at `offset` and a crash
// before the fsync.
template <typename Log>
void TearAndCrash(Log& log, const std::string& disk_scope, uint64_t offset) {
  fault::Activate(disk_scope + "/torn_write",
                  fault::Trigger::AlwaysWithValue(offset));
  fault::Activate(std::string(Log::kFailpointPrefix) + "/crash_after_write",
                  fault::Trigger::OneShot());
  EXPECT_EQ(log.Commit(log.next_lsn() - 1), Status::kCrashed);
  EXPECT_TRUE(log.crashed());
  fault::DeactivateAll();
}

// With a keep-all crash seed the recovered LSN is fully determined by the
// tear offset: the whole records below the tear survive, and the record
// crossing it is found by its checksum and truncated.
TYPED_TEST(CommitLogTest, TornBatchSweepRecoversExactWholeRecordPrefix) {
  for (const CommitMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    for (uint64_t offset = 0; offset <= kBatchBytes; ++offset) {
      SCOPED_TRACE("tear offset " + std::to_string(offset));
      TypeParam log(SweepDisk("log_sweep"), mode);
      const uint64_t acked = AckThenAppendBatch(log);
      const size_t durable = log.durable_record_count();
      const IntactPrefix intact = IntactBelow(offset);
      const bool crosses =
          intact.records < std::size(kBatchSizes) && offset > intact.bytes;
      log.set_crash_seed(PickKeepAllSeed(intact.records + (crosses ? 1 : 0)));
      TearAndCrash(log, "log_sweep", offset);

      const RecoveryResult recovered = log.Recover();
      EXPECT_EQ(recovered.records_recovered, durable + intact.records);
      EXPECT_EQ(recovered.torn_truncated, crosses ? 1u : 0u);
      EXPECT_EQ(recovered.recovered_lsn, acked + intact.bytes);

      // The log reopens and commits again.
      const uint64_t fresh = log.Append(32);
      ASSERT_NE(fresh, 0u);
      EXPECT_EQ(log.Commit(fresh), Status::kOk);
    }
  }
}

// The same sweep with arbitrary crash seeds: seeded device-cache loss stacks
// on the tear, so the boundary is no longer predictable. Recovery must still
// expose a whole-record prefix between the acked LSN and the tear.
TYPED_TEST(CommitLogTest, TornBatchSweepWithCacheLossStaysWholeRecords) {
  // Record ends relative to the batch start (0: nothing survived).
  std::vector<uint64_t> boundaries{0};
  std::partial_sum(std::begin(kBatchSizes), std::end(kBatchSizes),
                   std::back_inserter(boundaries));
  for (const CommitMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    for (uint64_t offset = 0; offset <= kBatchBytes; ++offset) {
      SCOPED_TRACE("tear offset " + std::to_string(offset));
      TypeParam log(SweepDisk("log_sweep2"), mode);
      const uint64_t acked = AckThenAppendBatch(log);
      log.set_crash_seed(offset * 2654435761ull + 17);
      TearAndCrash(log, "log_sweep2", offset);

      const RecoveryResult recovered = log.Recover();
      EXPECT_GE(recovered.recovered_lsn, acked) << "acked LSN lost";
      const uint64_t into_batch = recovered.recovered_lsn - acked;
      EXPECT_TRUE(std::find(boundaries.begin(), boundaries.end(),
                            into_batch) != boundaries.end())
          << "recovered mid-record, " << into_batch << " bytes into the batch";
      // Nothing past the tear reached the device.
      EXPECT_LE(into_batch, IntactBelow(offset).bytes);
    }
  }
}

// Concurrent committers racing a mid-batch crash: every commit acked kOk
// before the crash survives recovery.
TYPED_TEST(CommitLogTest, ConcurrentAckedCommitsSurviveMidBatchCrash) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 30;
  for (const CommitMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    TypeParam log(FastDisk("log_race"), mode);
    log.set_crash_seed(1234);
    // Crash the 8th flush, tearing its batch write at a seeded point.
    fault::Activate("log_race/torn_write", fault::Trigger::OneShot(7));
    fault::Activate(TestFixture::Point("crash_after_write"),
                    fault::Trigger::OneShot(7));

    std::vector<std::vector<uint64_t>> acked(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCommitsPerThread; ++i) {
          const uint64_t lsn = log.Append(40 + 13 * static_cast<uint64_t>(t));
          if (lsn == 0) {
            return;  // crashed
          }
          if (log.Commit(lsn) == Status::kOk) {
            acked[static_cast<size_t>(t)].push_back(lsn);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    fault::DeactivateAll();
    ASSERT_TRUE(log.crashed());

    const RecoveryResult recovered = log.Recover();
    for (int t = 0; t < kThreads; ++t) {
      for (const uint64_t lsn : acked[static_cast<size_t>(t)]) {
        EXPECT_LE(lsn, recovered.recovered_lsn)
            << "committer " << t << " lost an acked LSN";
      }
    }
    const Stats stats = log.stats();
    EXPECT_GE(stats.crashes, 1u);
    EXPECT_GE(stats.leader_flushes, 1u);
  }
}

}  // namespace

// minipg: a worker-per-connection transactional engine, the Postgres 9.6
// stand-in for the paper's Section 4.6 case study.
//
// Each transaction (semantic interval) parses into a small plan tree executed
// through ExecProcNode; writes insert WAL records, and commit flushes the WAL
// through the single exclusive write lock (LWLockAcquireOrWait) and releases
// SIREAD predicate locks — the three variance sources of paper Table 6.
//
//   exec_simple_query
//    |- ExecProcNode (recursive) -- ExecSeqScan / ExecIndexScan /
//    |                              ExecModifyTable / ExecNestLoop / ExecAgg
//    `- CommitTransaction
//        |- XLogFlush -- LWLockAcquireOrWait
//        |            `- issue_xlog_fsync
//        `- ReleasePredicateLocks
#ifndef SRC_MINIPG_ENGINE_H_
#define SRC_MINIPG_ENGINE_H_

#include <atomic>
#include <memory>

#include "src/minidb/engine.h"  // reuses TxnRequest/TxnType shapes
#include "src/minipg/executor.h"
#include "src/minipg/predicate_locks.h"
#include "src/minipg/wal.h"
#include "src/vprof/analysis/call_graph.h"

namespace minipg {

struct PgConfig {
  // Number of independent WAL units (1 = stock Postgres; 2 = the paper's
  // distributed-logging fix, Figure 4 right).
  int wal_units = 1;

  // Who performs the WAL I/O at commit: leader-based group commit (default)
  // or the per-commit exclusive write+fsync baseline.
  CommitMode commit_mode = CommitMode::kGroupCommit;

  // Serializable isolation (predicate locking) on/off.
  bool serializable = true;

  simio::DiskConfig wal_disk;
  uint64_t seed = 4321;
};

class PgEngine {
 public:
  explicit PgEngine(const PgConfig& config);

  PgEngine(const PgEngine&) = delete;
  PgEngine& operator=(const PgEngine&) = delete;

  // Executes one transaction as a semantic interval; returns true on commit.
  bool Execute(const minidb::TxnRequest& request);

  // Graceful shutdown: refuses new transactions, then drains every WAL
  // unit — backends already inside XLogFlush collect their acks, and each
  // unit lands its pending batch with one final write+fsync. No acked
  // commit is lost and no backend is left on a flush-round event.
  void Stop();

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  static void RegisterCallGraph(vprof::CallGraph* graph);

  Wal& wal() { return wal_; }
  PredicateLockManager& predicate_locks() { return predicate_locks_; }
  const PgConfig& config() const { return config_; }
  uint64_t committed_count() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted_count() const {
    return aborted_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<PlanNode> BuildPlan(const minidb::TxnRequest& request,
                                      statkit::Rng& rng) const;
  // Returns false when the WAL refuses the commit (crash or I/O error).
  bool CommitTransaction(ExecContext* context);

  PgConfig config_;
  Wal wal_;
  PredicateLockManager predicate_locks_;
  Executor executor_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace minipg

#endif  // SRC_MINIPG_ENGINE_H_

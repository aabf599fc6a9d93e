// minidb: a thread-per-connection transactional storage engine, the
// MySQL/InnoDB stand-in for the paper's Section 4.5 case study.
//
// Each transaction is a semantic interval: Execute() wraps the work in
// BeginInterval/EndInterval, and `run_transaction` is the variance-tree root
// the profiler starts from. The instrumented function hierarchy mirrors the
// InnoDB functions the paper names:
//
//   run_transaction
//    |- row_sel ------------------ lock_rec_lock -- os_event_wait
//    |                          |- btr_cur_search_to_nth_level
//    |                          `- buf_page_get --- buf_pool_mutex_enter
//    |- row_upd ---------------- (same children)
//    |- row_ins_clust_index_entry_low
//    |                          |- btr_cur_search_to_nth_level
//    |                          `- buf_page_get --- buf_pool_mutex_enter
//    `- trx_commit ------------- log_write_up_to -- fil_flush
//                             `- lock_release
#ifndef SRC_MINIDB_ENGINE_H_
#define SRC_MINIDB_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/minidb/buffer_pool.h"
#include "src/minidb/config.h"
#include "src/minidb/lock_manager.h"
#include "src/minidb/redo_log.h"
#include "src/minidb/table.h"
#include "src/minidb/transaction.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/service/vprofd.h"

namespace minidb {

enum class TxnType {
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

struct TxnRequest {
  TxnType type = TxnType::kNewOrder;
  int warehouse = 0;
  int district = 0;
  int64_t customer = 0;
  std::vector<int64_t> items;  // item ids for NewOrder / StockLevel
};

struct TxnOutcome {
  bool committed = false;
  uint64_t trx_id = 0;
  // Why the transaction aborted (kNone when committed). Lock timeouts,
  // deadlocks and log I/O errors are retryable; a crashed log is not until
  // someone calls redo_log().Recover().
  TxnError error = TxnError::kNone;

  bool retryable() const { return !committed && IsRetryable(error); }
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Executes one transaction as a semantic interval. Thread-safe; intended
  // to be called from many connection threads.
  TxnOutcome Execute(const TxnRequest& request);

  // Graceful shutdown: refuses new transactions (kShutdown), then drains the
  // redo log — group-commit followers already inside Commit collect their
  // acks, and one final write+fsync lands the pending batch. No acked commit
  // is lost and no thread is left waiting on a flush-round event. Idempotent.
  void Stop();

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Declares the engine's static call graph (instrumentable functions and
  // caller/callee edges) for the profiler's refinement and specificity.
  static void RegisterCallGraph(vprof::CallGraph* graph);

  // Starts the always-on profiling service (vprofd) rooted at this engine's
  // semantic interval. Unset options default to "run_transaction" and the
  // engine's registered call graph; the returned daemon is already running
  // and stops when destroyed.
  static std::unique_ptr<vprof::Vprofd> StartOnlineProfiler(
      vprof::VprofdOptions options = {});

  // Sum of every row balance across all tables. Committed transactions move
  // balance in zero-sum transfers, so this is 0 at all quiesced points — the
  // chaos invariant library's conservation check.
  int64_t BalanceTotal() const;

  // Order-independent digest over all table contents (keys, versions,
  // balances); the chaos determinism sweep compares post-recovery digests.
  uint64_t StateDigest() const;

  const EngineConfig& config() const { return config_; }
  simio::Disk& data_disk() { return data_disk_; }
  simio::Disk& log_disk() { return log_disk_; }
  BufferPool& buffer_pool() { return *pool_; }
  LockManager& lock_manager() { return locks_; }
  RedoLog& redo_log() { return *log_; }
  Table& warehouse() { return *warehouse_; }
  Table& district() { return *district_; }
  Table& customer() { return *customer_; }
  Table& stock() { return *stock_; }
  Table& orders() { return *orders_; }
  Table& order_lines() { return *order_lines_; }
  Table& history() { return *history_; }

  uint64_t committed_count() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted_count() const {
    return aborted_.load(std::memory_order_relaxed);
  }

  // Key helpers (also used by the workload generator).
  int64_t DistrictKey(int warehouse, int district) const {
    return warehouse * 10 + district;
  }
  int64_t CustomerKey(int warehouse, int district, int64_t customer) const {
    return (static_cast<int64_t>(warehouse) * 10 + district) * 3000 + customer;
  }
  int64_t StockKey(int warehouse, int64_t item) const {
    return static_cast<int64_t>(warehouse) * 100000 + item;
  }

  static constexpr int kDistrictsPerWarehouse = 10;
  static constexpr int64_t kCustomersPerDistrict = 300;
  static constexpr int64_t kItemsPerWarehouse = 2000;

 private:
  void LoadInitialData();

  // Instrumented row operations (InnoDB naming). On failure the cause is
  // recorded on the transaction (trx->error()).
  bool RowSelect(Transaction* trx, Table& table, int64_t key, LockMode mode);
  bool RowUpdate(Transaction* trx, Table& table, int64_t key);
  bool RowInsert(Transaction* trx, Table& table, int64_t key);

  // Takes a lock, converting a typed failure into trx->error().
  bool AcquireLock(Transaction* trx, uint64_t object_id, LockMode mode);
  // Appends redo, converting a crashed log into trx->error().
  bool AppendRedo(Transaction* trx, uint64_t bytes);

  // Commit forces the redo log per the flush policy; returns false (with
  // trx->error() set) when the log fails, in which case the caller aborts.
  bool Commit(Transaction* trx, bool needs_log_flush);
  void Abort(Transaction* trx);

  bool RunNewOrder(Transaction* trx, const TxnRequest& request);
  bool RunPayment(Transaction* trx, const TxnRequest& request);
  bool RunOrderStatus(Transaction* trx, const TxnRequest& request);
  bool RunDelivery(Transaction* trx, const TxnRequest& request);
  bool RunStockLevel(Transaction* trx, const TxnRequest& request);

  EngineConfig config_;
  simio::Disk data_disk_;
  simio::Disk log_disk_;
  std::unique_ptr<BufferPool> pool_;
  LockManager locks_;
  std::unique_ptr<RedoLog> log_;

  std::unique_ptr<Table> warehouse_;
  std::unique_ptr<Table> district_;
  std::unique_ptr<Table> customer_;
  std::unique_ptr<Table> stock_;
  std::unique_ptr<Table> orders_;
  std::unique_ptr<Table> order_lines_;
  std::unique_ptr<Table> history_;

  std::atomic<uint64_t> next_trx_id_{1};
  std::atomic<int64_t> next_order_key_{1};
  std::atomic<int64_t> next_history_key_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<bool> stopped_{false};
  // Per-transaction redo volume accumulates here before commit (thread-local
  // tracking would be overkill: Append is called per row mutation).
};

}  // namespace minidb

#endif  // SRC_MINIDB_ENGINE_H_

#include "src/minidb/engine.h"

#include <algorithm>
#include <chrono>

#include "src/vprof/probe.h"
#include "src/vprof/runtime.h"

namespace minidb {

namespace {

constexpr uint32_t kWarehouseTableId = 1;
constexpr uint32_t kDistrictTableId = 2;
constexpr uint32_t kCustomerTableId = 3;
constexpr uint32_t kStockTableId = 4;
constexpr uint32_t kOrdersTableId = 5;
constexpr uint32_t kOrderLinesTableId = 6;
constexpr uint32_t kHistoryTableId = 7;

constexpr uint64_t kRedoBytesPerUpdate = 160;
constexpr uint64_t kRedoBytesPerInsert = 220;

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      data_disk_(config.data_disk),
      log_disk_(config.log_disk),
      locks_(config.lock_scheduling, config.lock_wait_timeout_ns) {
  pool_ = std::make_unique<BufferPool>(
      config.buffer_pool_pages, config.buffer_policy,
      /*llu_try_iterations=*/64, &data_disk_, config.buffer_pool_instances);
  log_ = std::make_unique<RedoLog>(config.flush_policy, &log_disk_,
                                   /*flusher_period_us=*/2000.0,
                                   config.commit_mode);
  warehouse_ = std::make_unique<Table>("warehouse", kWarehouseTableId, 4, pool_.get());
  district_ = std::make_unique<Table>("district", kDistrictTableId, 4, pool_.get());
  customer_ = std::make_unique<Table>("customer", kCustomerTableId, 16, pool_.get());
  stock_ = std::make_unique<Table>("stock", kStockTableId, 16, pool_.get());
  orders_ = std::make_unique<Table>("orders", kOrdersTableId, 16, pool_.get());
  order_lines_ = std::make_unique<Table>("order_lines", kOrderLinesTableId, 32, pool_.get());
  history_ = std::make_unique<Table>("history", kHistoryTableId, 32, pool_.get());
  LoadInitialData();
}

void Engine::LoadInitialData() {
  for (int w = 0; w < config_.warehouses; ++w) {
    warehouse_->LoadRow(w);
    for (int d = 0; d < kDistrictsPerWarehouse; ++d) {
      district_->LoadRow(DistrictKey(w, d));
      for (int64_t c = 0; c < kCustomersPerDistrict; ++c) {
        customer_->LoadRow(CustomerKey(w, d, c));
      }
    }
    for (int64_t item = 0; item < kItemsPerWarehouse; ++item) {
      stock_->LoadRow(StockKey(w, item));
    }
  }
}

bool Engine::AcquireLock(Transaction* trx, uint64_t object_id, LockMode mode) {
  switch (locks_.LockEx(trx, object_id, mode)) {
    case LockResult::kGranted:
      return true;
    case LockResult::kTimeout:
      trx->set_error(TxnError::kLockTimeout);
      return false;
    case LockResult::kDeadlock:
      trx->set_error(TxnError::kDeadlock);
      return false;
  }
  return false;
}

bool Engine::AppendRedo(Transaction* trx, uint64_t bytes) {
  if (log_->Append(bytes) == 0) {
    if (log_->shutdown()) {
      trx->set_error(TxnError::kShutdown);
    } else if (log_->wedged()) {
      trx->set_error(TxnError::kLogWedged);
    } else {
      trx->set_error(TxnError::kLogCrashed);
    }
    return false;
  }
  return true;
}

bool Engine::RowSelect(Transaction* trx, Table& table, int64_t key,
                       LockMode mode) {
  VPROF_FUNC("row_sel");
  if (!AcquireLock(trx, table.LockObjectId(key), mode)) {
    return false;
  }
  const auto found = table.index().Search(key);
  if (!found.has_value()) {
    return true;  // absent row: a no-op read, not an error
  }
  return table.ReadRow(key, nullptr);
}

bool Engine::RowUpdate(Transaction* trx, Table& table, int64_t key) {
  VPROF_FUNC("row_upd");
  if (!AcquireLock(trx, table.LockObjectId(key), LockMode::kExclusive)) {
    return false;
  }
  const auto found = table.index().Search(key);
  if (!found.has_value()) {
    return true;
  }
  if (!table.UpdateRow(key)) {
    return true;
  }
  return AppendRedo(trx, kRedoBytesPerUpdate);
}

bool Engine::RowInsert(Transaction* trx, Table& table, int64_t key) {
  VPROF_FUNC("row_ins_clust_index_entry_low");
  if (!AcquireLock(trx, table.LockObjectId(key), LockMode::kExclusive)) {
    return false;
  }
  // Uniqueness probe, then the actual insert — the varying code paths of the
  // index mutation are this function's inherent variance (Table 4).
  const auto existing = table.index().Search(key);
  if (existing.has_value()) {
    return true;
  }
  if (!table.InsertRow(key)) {
    return true;
  }
  return AppendRedo(trx, kRedoBytesPerInsert);
}

bool Engine::Commit(Transaction* trx, bool needs_log_flush, uint64_t lsn) {
  VPROF_FUNC("trx_commit");
  return FinishCommit(
      trx, needs_log_flush ? log_->CommitUpTo(lsn) : LogStatus::kOk);
}

bool Engine::FinishCommit(Transaction* trx, LogStatus status) {
  switch (status) {
    case LogStatus::kOk:
      break;
    case LogStatus::kIoError:
      trx->set_error(TxnError::kIoError);
      return false;
    case LogStatus::kWedged:
      trx->set_error(TxnError::kLogWedged);
      return false;
    case LogStatus::kCrashed:
      trx->set_error(TxnError::kLogCrashed);
      return false;
    case LogStatus::kShutdown:
      trx->set_error(TxnError::kShutdown);
      return false;
  }
  // The log acked: apply the transaction's balance transfers while its X
  // locks are still held, so the movement is all-or-nothing with respect to
  // every other committer and never happens for aborts.
  for (const PendingDelta& d : trx->pending_deltas()) {
    d.table->ApplyDelta(d.key, d.delta);
  }
  locks_.ReleaseAll(trx);
  committed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Engine::Abort(Transaction* trx) {
  trx->MarkAborted();
  locks_.ReleaseAll(trx);
  aborted_.fetch_add(1, std::memory_order_relaxed);
}

TxnOutcome Engine::Conclude(Transaction* trx, bool committed,
                            uint64_t commit_lsn) {
  if (!committed) {
    Abort(trx);
    return TxnOutcome{false, trx->id(), trx->error()};
  }
  return TxnOutcome{true, trx->id(), TxnError::kNone, commit_lsn};
}

// Lock acquisition follows one global table order across all transaction
// types (stock < customer < district < warehouse < orders < order_lines <
// history), which makes the workload deadlock-free. The hot locks (district,
// warehouse) are acquired *after* the variable-length per-item work, so
// transactions reach the contended queues at heterogeneous ages — the regime
// in which VATS's oldest-first grant policy pays off (paper Section 4.5).
bool Engine::RunNewOrder(Transaction* trx, const TxnRequest& request) {
  // Stock rows first, in ascending key order.
  std::vector<int64_t> items = request.items;
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  for (int64_t item : items) {
    const int64_t key = StockKey(request.warehouse, item);
    // SELECT ... FOR UPDATE: take the exclusive lock up front; a shared
    // lock followed by an upgrade would deadlock against a concurrent
    // NewOrder on the same item.
    if (!RowSelect(trx, *stock_, key, LockMode::kExclusive)) {
      return false;
    }
    if (!RowUpdate(trx, *stock_, key)) {
      return false;
    }
  }
  const int64_t district_key = DistrictKey(request.warehouse, request.district);
  if (!RowUpdate(trx, *district_, district_key)) {
    return false;
  }
  // Zero-sum transfer: each ordered item moves value from its (X-locked)
  // stock row into the district row, also X-locked above.
  for (int64_t item : items) {
    const int64_t unit_value = 10 + (item % 90);
    trx->AddDelta(stock_.get(), StockKey(request.warehouse, item), -unit_value);
    trx->AddDelta(district_.get(), district_key, unit_value);
  }
  if (!RowSelect(trx, *warehouse_, request.warehouse, LockMode::kShared)) {
    return false;
  }
  const int64_t order_key = next_order_key_.fetch_add(1, std::memory_order_relaxed);
  if (!RowInsert(trx, *orders_, order_key)) {
    return false;
  }
  for (size_t line = 0; line < items.size(); ++line) {
    if (!RowInsert(trx, *order_lines_,
                   order_key * 16 + static_cast<int64_t>(line))) {
      return false;
    }
  }
  return true;
}

bool Engine::RunPayment(Transaction* trx, const TxnRequest& request) {
  const int64_t customer_key =
      CustomerKey(request.warehouse, request.district, request.customer);
  // FOR UPDATE: avoid the shared->exclusive upgrade deadlock.
  if (!RowSelect(trx, *customer_, customer_key, LockMode::kExclusive)) {
    return false;
  }
  if (!RowUpdate(trx, *customer_, customer_key)) {
    return false;
  }
  if (!RowUpdate(trx, *district_,
                 DistrictKey(request.warehouse, request.district))) {
    return false;
  }
  if (!RowUpdate(trx, *warehouse_, request.warehouse)) {
    return false;
  }
  // Zero-sum transfer: the customer pays the warehouse. Both rows are
  // X-locked by the updates above.
  const int64_t amount = 100 + request.customer % 400;
  trx->AddDelta(customer_.get(), customer_key, -amount);
  trx->AddDelta(warehouse_.get(), request.warehouse, amount);
  const int64_t history_key =
      next_history_key_.fetch_add(1, std::memory_order_relaxed);
  return RowInsert(trx, *history_, history_key);
}

bool Engine::RunOrderStatus(Transaction* trx, const TxnRequest& request) {
  const int64_t customer_key =
      CustomerKey(request.warehouse, request.district, request.customer);
  if (!RowSelect(trx, *customer_, customer_key, LockMode::kShared)) {
    return false;
  }
  // Scan this customer's recent orders (approximation: the latest orders).
  const int64_t latest = next_order_key_.load(std::memory_order_relaxed);
  std::lock_guard<vprof::Mutex> latch(orders_->index_latch());
  const auto rows = orders_->index().Range(std::max<int64_t>(1, latest - 20), latest);
  (void)rows;
  return true;
}

bool Engine::RunDelivery(Transaction* trx, const TxnRequest& request) {
  // Deliver a recent order: update the customer's balance, then the order
  // (customer precedes orders in the global lock order).
  const int64_t customer_key =
      CustomerKey(request.warehouse, request.district, request.customer);
  if (!RowUpdate(trx, *customer_, customer_key)) {
    return false;
  }
  const int64_t latest = next_order_key_.load(std::memory_order_relaxed);
  if (latest > 1) {
    const int64_t order_key =
        std::max<int64_t>(1, latest - 1 - (request.customer % 16));
    if (!RowUpdate(trx, *orders_, order_key)) {
      return false;
    }
  }
  return true;
}

bool Engine::RunStockLevel(Transaction* trx, const TxnRequest& request) {
  for (int64_t item : request.items) {
    if (!RowSelect(trx, *stock_, StockKey(request.warehouse, item),
                   LockMode::kShared)) {
      return false;
    }
  }
  return true;
}

bool Engine::RunBody(Transaction* trx, const TxnRequest& request,
                     bool* needs_log_flush) {
  switch (request.type) {
    case TxnType::kNewOrder:
      return RunNewOrder(trx, request);
    case TxnType::kPayment:
      return RunPayment(trx, request);
    case TxnType::kOrderStatus:
      *needs_log_flush = false;
      return RunOrderStatus(trx, request);
    case TxnType::kDelivery:
      return RunDelivery(trx, request);
    case TxnType::kStockLevel:
      *needs_log_flush = false;
      return RunStockLevel(trx, request);
  }
  return false;
}

TxnOutcome Engine::Execute(const TxnRequest& request) {
  VPROF_FUNC("run_transaction");
  if (stopped_.load(std::memory_order_acquire)) {
    return TxnOutcome{false, 0, TxnError::kShutdown};
  }
  // Each transaction is its own semantic interval — unless the caller is
  // already executing inside one (a multi-tier request, paper Section 5), in
  // which case the transaction joins the enclosing interval.
  const bool enclosed = vprof::CurrentIntervalId() != vprof::kNoInterval;
  // The interval label is the transaction type (+1; 0 means untyped), so
  // the analysis can compute per-transaction-type variance profiles.
  const vprof::IntervalId sid =
      enclosed ? vprof::kNoInterval
               : vprof::BeginInterval(
                     static_cast<vprof::IntervalLabel>(request.type) + 1);

  Transaction trx(next_trx_id_.fetch_add(1, std::memory_order_relaxed),
                  MonotonicNowNs());
  bool needs_log_flush = true;
  bool ok = RunBody(&trx, request, &needs_log_flush);
  const uint64_t lsn = needs_log_flush ? log_->next_lsn() - 1 : 0;
  ok = ok && Commit(&trx, needs_log_flush, lsn);
  const TxnOutcome outcome = Conclude(&trx, ok, lsn);
  if (!enclosed) {
    vprof::EndInterval(sid);
  }
  return outcome;
}

void Engine::ExecutePipelined(const TxnRequest& request, TxnDone done) {
  VPROF_FUNC("run_transaction");
  if (stopped_.load(std::memory_order_acquire)) {
    done(TxnOutcome{false, 0, TxnError::kShutdown});
    return;
  }
  // Shared with the completion, which may outlive this frame.
  auto trx = std::make_shared<Transaction>(
      next_trx_id_.fetch_add(1, std::memory_order_relaxed), MonotonicNowNs());
  bool needs_log_flush = true;
  bool ok = RunBody(trx.get(), request, &needs_log_flush);
  if (ok && needs_log_flush) {
    CommitPipelined(std::move(trx), std::move(done));
    return;
  }
  ok = ok && Commit(trx.get(), /*needs_log_flush=*/false, /*lsn=*/0);
  done(Conclude(trx.get(), ok, /*commit_lsn=*/0));
}

void Engine::CommitPipelined(std::shared_ptr<Transaction> trx, TxnDone done) {
  VPROF_FUNC("trx_commit");
  const uint64_t lsn = log_->next_lsn() - 1;
  log_->CommitPipelined(
      lsn, [this, trx, lsn, done = std::move(done)](LogStatus status) {
        done(Conclude(trx.get(), FinishCommit(trx.get(), status), lsn));
      });
}

void Engine::Stop() {
  // Gate first so no new transaction starts a commit, then drain the log:
  // committers already past the gate elect leaders and flush normally, and
  // the log's own final flush lands whatever batch remains.
  stopped_.store(true, std::memory_order_release);
  log_->Shutdown();
}

int64_t Engine::BalanceTotal() const {
  return warehouse_->SumBalances() + district_->SumBalances() +
         customer_->SumBalances() + stock_->SumBalances() +
         orders_->SumBalances() + order_lines_->SumBalances() +
         history_->SumBalances();
}

uint64_t Engine::StateDigest() const {
  // Mix each table with a distinct multiplier so swapping identical rows
  // between tables cannot cancel out.
  uint64_t digest = 0;
  const Table* tables[] = {warehouse_.get(), district_.get(), customer_.get(),
                           stock_.get(),     orders_.get(),   order_lines_.get(),
                           history_.get()};
  uint64_t salt = 0x9E3779B97F4A7C15ull;
  for (const Table* table : tables) {
    digest ^= table->StateDigest() * salt;
    salt = salt * 6364136223846793005ull + 1442695040888963407ull;
  }
  return digest;
}

void Engine::RegisterCallGraph(vprof::CallGraph* graph) {
  graph->AddEdge("run_transaction", "row_sel");
  graph->AddEdge("run_transaction", "row_upd");
  graph->AddEdge("run_transaction", "row_ins_clust_index_entry_low");
  graph->AddEdge("run_transaction", "trx_commit");
  graph->AddEdge("row_sel", "lock_rec_lock");
  graph->AddEdge("row_sel", "btr_cur_search_to_nth_level");
  graph->AddEdge("row_sel", "buf_page_get");
  graph->AddEdge("row_upd", "lock_rec_lock");
  graph->AddEdge("row_upd", "btr_cur_search_to_nth_level");
  graph->AddEdge("row_upd", "buf_page_get");
  graph->AddEdge("row_ins_clust_index_entry_low", "lock_rec_lock");
  graph->AddEdge("row_ins_clust_index_entry_low", "btr_cur_search_to_nth_level");
  graph->AddEdge("row_ins_clust_index_entry_low", "buf_page_get");
  graph->AddEdge("lock_rec_lock", "os_event_wait");
  graph->AddEdge("buf_page_get", "buf_pool_mutex_enter");
  graph->AddEdge("trx_commit", "log_write_up_to");
  graph->AddEdge("trx_commit", "lock_release");
  graph->AddEdge("log_write_up_to", "fil_flush");
}

std::unique_ptr<vprof::Vprofd> Engine::StartOnlineProfiler(
    vprof::VprofdOptions options) {
  if (options.root_function.empty()) {
    options.root_function = "run_transaction";
  }
  if (options.graph == nullptr) {
    auto graph = std::make_shared<vprof::CallGraph>();
    RegisterCallGraph(graph.get());
    options.graph = std::move(graph);
  }
  auto daemon = std::make_unique<vprof::Vprofd>(std::move(options));
  daemon->Start();
  return daemon;
}

}  // namespace minidb

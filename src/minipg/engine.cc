#include "src/minipg/engine.h"

#include "src/vprof/probe.h"
#include "src/vprof/runtime.h"

namespace minipg {

namespace {

// Object-id namespaces for predicate locks, per logical table.
constexpr uint64_t kDistrictBase = 1ull << 40;
constexpr uint64_t kCustomerBase = 2ull << 40;
constexpr uint64_t kStockBase = 3ull << 40;
constexpr uint64_t kOrdersBase = 4ull << 40;

}  // namespace

PgEngine::PgEngine(const PgConfig& config)
    : config_(config),
      wal_(config.wal_units, config.wal_disk, config.commit_mode),
      executor_(&predicate_locks_, config.serializable) {}

std::unique_ptr<PlanNode> PgEngine::BuildPlan(const minidb::TxnRequest& request,
                                              statkit::Rng& rng) const {
  using minidb::TxnType;
  switch (request.type) {
    case TxnType::kNewOrder: {
      // ModifyTable over the order lines, fed by an index scan per item,
      // plus the district update.
      auto modify = PlanNode::Make(PlanNodeType::kModifyTable,
                                   static_cast<int64_t>(request.items.size()) + 1,
                                   kOrdersBase);
      modify->children.push_back(
          PlanNode::Make(PlanNodeType::kIndexScan, 1, kDistrictBase));
      for (size_t i = 0; i < request.items.size(); ++i) {
        modify->children.push_back(
            PlanNode::Make(PlanNodeType::kIndexScan, 1, kStockBase));
      }
      return modify;
    }
    case TxnType::kPayment: {
      auto modify =
          PlanNode::Make(PlanNodeType::kModifyTable, 3, kCustomerBase);
      modify->children.push_back(
          PlanNode::Make(PlanNodeType::kIndexScan, 1, kDistrictBase));
      modify->children.push_back(
          PlanNode::Make(PlanNodeType::kIndexScan, 1, kCustomerBase));
      return modify;
    }
    case TxnType::kOrderStatus: {
      auto agg = PlanNode::Make(PlanNodeType::kAgg, 1, kOrdersBase);
      auto join = PlanNode::Make(PlanNodeType::kNestLoop, 0, kOrdersBase);
      join->children.push_back(
          PlanNode::Make(PlanNodeType::kIndexScan, 1, kCustomerBase));
      join->children.push_back(PlanNode::Make(
          PlanNodeType::kSeqScan, rng.NextInRange(20, 120), kOrdersBase));
      agg->children.push_back(std::move(join));
      return agg;
    }
    case TxnType::kDelivery: {
      auto modify = PlanNode::Make(PlanNodeType::kModifyTable, 2, kOrdersBase);
      modify->children.push_back(
          PlanNode::Make(PlanNodeType::kIndexScan, 2, kOrdersBase));
      return modify;
    }
    case TxnType::kStockLevel: {
      auto agg = PlanNode::Make(PlanNodeType::kAgg, 1, kStockBase);
      agg->children.push_back(PlanNode::Make(
          PlanNodeType::kSeqScan, rng.NextInRange(60, 300), kStockBase));
      return agg;
    }
  }
  return PlanNode::Make(PlanNodeType::kSeqScan, 1, kStockBase);
}

bool PgEngine::CommitTransaction(ExecContext* context) {
  VPROF_FUNC("CommitTransaction");
  if (context->wal_bytes > 0) {
    // Insert a commit record and flush up to it. A transaction logs to one
    // unit, chosen by current waiter counts (distributed logging).
    const Wal::Position position = wal_.Insert(context->wal_bytes + 32);
    if (position.lsn == 0 || wal_.Flush(position) != WalStatus::kOk) {
      // Crashed or erroring WAL: the transaction is not durable.
      aborted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (config_.serializable) {
    predicate_locks_.ReleaseAll(context->txn_id, context->read_objects);
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PgEngine::Execute(const minidb::TxnRequest& request) {
  VPROF_FUNC("exec_simple_query");
  if (stopped_.load(std::memory_order_acquire)) {
    return false;
  }
  // Join an enclosing semantic interval (multi-tier caller) if one exists.
  const bool enclosed = vprof::CurrentIntervalId() != vprof::kNoInterval;
  const vprof::IntervalId sid =
      enclosed ? vprof::kNoInterval : vprof::BeginInterval();

  ExecContext context;
  context.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  statkit::Rng rng(config_.seed * 2654435761ull + context.txn_id);
  context.rng = &rng;

  const std::unique_ptr<PlanNode> plan = BuildPlan(request, rng);
  executor_.ExecProcNode(*plan, &context);
  const bool committed = CommitTransaction(&context);

  if (!enclosed) {
    vprof::EndInterval(sid);
  }
  return committed;
}

void PgEngine::Stop() {
  // Gate first so no new backend enters commit, then drain the WAL units;
  // backends already inside XLogFlush finish normally.
  stopped_.store(true, std::memory_order_release);
  wal_.Shutdown();
}

void PgEngine::RegisterCallGraph(vprof::CallGraph* graph) {
  graph->AddEdge("exec_simple_query", "ExecProcNode");
  graph->AddEdge("exec_simple_query", "CommitTransaction");
  graph->AddEdge("ExecProcNode", "ExecSeqScan");
  graph->AddEdge("ExecProcNode", "ExecIndexScan");
  graph->AddEdge("ExecProcNode", "ExecModifyTable");
  graph->AddEdge("ExecProcNode", "ExecNestLoop");
  graph->AddEdge("ExecProcNode", "ExecAgg");
  graph->AddEdge("ExecModifyTable", "ExecProcNode");
  graph->AddEdge("ExecNestLoop", "ExecProcNode");
  graph->AddEdge("ExecAgg", "ExecProcNode");
  graph->AddEdge("CommitTransaction", "XLogFlush");
  graph->AddEdge("CommitTransaction", "ReleasePredicateLocks");
  graph->AddEdge("XLogFlush", "LWLockAcquireOrWait");
  graph->AddEdge("XLogFlush", "issue_xlog_fsync");
}

std::vector<vprof::AppGauge> PgEngine::ScaleGauges() {
  std::vector<vprof::AppGauge> gauges;
  for (int i = 0; i < wal_.unit_count(); ++i) {
    const WalStats s = wal_.unit(i).stats();
    const std::string prefix = "minipg.wal.unit" + std::to_string(i);
    gauges.push_back(
        {prefix + ".flush_waits", static_cast<double>(s.flush_waits)});
    gauges.push_back(
        {prefix + ".batch_records_avg",
         s.flushes_performed > 0
             ? static_cast<double>(s.batched_records) /
                   static_cast<double>(s.flushes_performed)
             : 0.0});
  }
  return gauges;
}

std::vector<vprof::AppGauge> PgEngine::RobustnessGauges() {
  uint64_t io_errors = 0;
  uint64_t wedges = 0;
  uint64_t crashes = 0;
  for (int i = 0; i < wal_.unit_count(); ++i) {
    const WalStats s = wal_.unit(i).stats();
    io_errors += s.io_errors;
    wedges += s.wedges;
    crashes += s.crashes;
  }
  std::vector<vprof::AppGauge> gauges;
  gauges.push_back({"minipg.wal.io_errors", static_cast<double>(io_errors)});
  gauges.push_back({"minipg.wal.wedges", static_cast<double>(wedges)});
  gauges.push_back({"minipg.wal.crashes", static_cast<double>(crashes)});
  gauges.push_back(
      {"minipg.txn.committed", static_cast<double>(committed_count())});
  gauges.push_back(
      {"minipg.txn.aborted", static_cast<double>(aborted_count())});
  return gauges;
}

}  // namespace minipg

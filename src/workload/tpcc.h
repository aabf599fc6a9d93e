// TPC-C-style workload generator and closed-loop driver for minidb/minipg.
//
// The paper drives MySQL and Postgres with the TPC-C benchmark via
// OLTP-Bench; this module generates the same transaction mix (NewOrder,
// Payment, OrderStatus, Delivery, StockLevel) from a deterministic seed and
// runs it closed-loop from a configurable number of connection threads.
#ifndef SRC_WORKLOAD_TPCC_H_
#define SRC_WORKLOAD_TPCC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/minidb/engine.h"
#include "src/statkit/distributions.h"
#include "src/statkit/rng.h"

namespace workload {

struct TpccOptions {
  int threads = 4;
  int transactions_per_thread = 500;

  // Items per NewOrder / StockLevel request, drawn uniformly from this
  // range.
  static constexpr int min_items = 3;
  static constexpr int max_items = 8;

  // Access skew (TPC-C's NURand analogue): 0 = uniform; ~0.9 concentrates
  // accesses on a few hot customers/items, raising record contention.
  double customer_zipf_theta = 0.0;
  double item_zipf_theta = 0.0;

  // Warehouse partitioning (the scale-out benchmark shape): each worker
  // thread gets a home warehouse (thread t -> warehouse t mod warehouses)
  // and issues its transactions there, so threads stop colliding on one
  // warehouse's hot rows and the engines' scalability becomes observable.
  // 15% of payments (TPC-C's remote payments) cross to a uniformly-chosen
  // remote warehouse, keeping some cross-partition traffic.
  bool partition_by_warehouse = false;

  // Retry policy for retryable aborts (lock timeout, deadlock, log I/O
  // error): up to max_retries re-executions with capped exponential backoff
  // and deterministic per-thread jitter. 0 disables retries.
  int max_retries = 3;
  double backoff_base_us = 50.0;
  double backoff_cap_us = 2000.0;

  uint64_t seed = 99;
};

struct TpccResult {
  std::vector<double> latencies_ns;  // committed requests, incl. retry time
  uint64_t committed = 0;            // requests that eventually committed
  uint64_t aborted = 0;              // requests that ultimately failed
  uint64_t retries = 0;              // re-executions after retryable aborts
  uint64_t retries_exhausted = 0;    // requests that failed all attempts
  uint64_t non_retryable_aborts = 0; // requests aborted with no retry
  uint64_t engine_aborts = 0;        // engine aborted_count() delta (Run only)
  double backoff_time_us = 0.0;      // total time slept backing off
  double duration_s = 0.0;
  double throughput_tps = 0.0;
};

// Generates TPC-C-style requests for a given engine scale.
class TpccGenerator {
 public:
  TpccGenerator(const TpccOptions& options, int warehouses);

  minidb::TxnRequest Next(statkit::Rng& rng) const;

  // As Next(), but with a home-warehouse affinity: when partitioning is on
  // and home_warehouse >= 0, the request targets the home warehouse (except
  // remote payments, see TpccOptions). home_warehouse < 0 falls back to the
  // uniform draw.
  minidb::TxnRequest Next(statkit::Rng& rng, int home_warehouse) const;

 private:
  TpccOptions options_;
  int warehouses_;
  std::unique_ptr<statkit::ZipfGenerator> customer_zipf_;
  std::unique_ptr<statkit::ZipfGenerator> item_zipf_;
};

// Closed-loop driver: `threads` connection threads each execute
// `transactions_per_thread` requests back to back.
class TpccDriver {
 public:
  TpccDriver(minidb::Engine* engine, const TpccOptions& options);

  TpccResult Run();

  // Runs the workload through an arbitrary executor (used by minipg, which
  // shares the request shape). The executor returns true on commit; failures
  // are treated as non-retryable since a bool carries no error type.
  using Executor = std::function<bool(const minidb::TxnRequest&)>;
  TpccResult RunWith(const Executor& executor, int warehouses);

  // As RunWith, but with typed outcomes so retryable aborts go through the
  // driver's backoff-and-retry loop.
  using TypedExecutor =
      std::function<minidb::TxnOutcome(const minidb::TxnRequest&)>;
  TpccResult RunTyped(const TypedExecutor& executor, int warehouses);

  // Open-ended variants for long-running servers (the online profiling
  // service): each thread keeps issuing transactions until `stop` becomes
  // true; transactions_per_thread is ignored.
  TpccResult RunUntil(const std::atomic<bool>& stop);
  TpccResult RunTypedUntil(const TypedExecutor& executor, int warehouses,
                           const std::atomic<bool>& stop);

 private:
  TpccResult RunLoop(const TypedExecutor& executor, int warehouses,
                     const std::atomic<bool>* stop);

  minidb::Engine* engine_;
  TpccOptions options_;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_TPCC_H_

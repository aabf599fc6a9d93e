#include "src/workload/tpcc.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "src/simio/disk.h"

namespace workload {

using minidb::TxnRequest;
using minidb::TxnType;

namespace {

// Transaction mix in percent; the remainder goes to StockLevel.
constexpr int kPctNewOrder = 45;
constexpr int kPctPayment = 43;
constexpr int kPctOrderStatus = 4;
constexpr int kPctDelivery = 4;

// Share of partitioned payments made to a remote warehouse (TPC-C's ~15%).
constexpr double kRemotePaymentFraction = 0.15;

}  // namespace

TpccGenerator::TpccGenerator(const TpccOptions& options, int warehouses)
    : options_(options), warehouses_(warehouses) {
  if (options.customer_zipf_theta > 0.0) {
    customer_zipf_ = std::make_unique<statkit::ZipfGenerator>(
        static_cast<uint64_t>(minidb::Engine::kCustomersPerDistrict),
        options.customer_zipf_theta);
  }
  if (options.item_zipf_theta > 0.0) {
    item_zipf_ = std::make_unique<statkit::ZipfGenerator>(
        static_cast<uint64_t>(minidb::Engine::kItemsPerWarehouse),
        options.item_zipf_theta);
  }
}

TxnRequest TpccGenerator::Next(statkit::Rng& rng) const {
  return Next(rng, /*home_warehouse=*/-1);
}

TxnRequest TpccGenerator::Next(statkit::Rng& rng, int home_warehouse) const {
  TxnRequest request;
  const int roll = static_cast<int>(rng.NextBelow(100));
  if (roll < kPctNewOrder) {
    request.type = TxnType::kNewOrder;
  } else if (roll < kPctNewOrder + kPctPayment) {
    request.type = TxnType::kPayment;
  } else if (roll < kPctNewOrder + kPctPayment + kPctOrderStatus) {
    request.type = TxnType::kOrderStatus;
  } else if (roll <
             kPctNewOrder + kPctPayment + kPctOrderStatus + kPctDelivery) {
    request.type = TxnType::kDelivery;
  } else {
    request.type = TxnType::kStockLevel;
  }

  if (options_.partition_by_warehouse && home_warehouse >= 0) {
    request.warehouse = home_warehouse % warehouses_;
    if (request.type == TxnType::kPayment && warehouses_ > 1 &&
        rng.NextDouble() < kRemotePaymentFraction) {
      // Remote payment: a uniformly-chosen warehouse other than home.
      int remote = static_cast<int>(
          rng.NextBelow(static_cast<uint64_t>(warehouses_ - 1)));
      if (remote >= request.warehouse) {
        ++remote;
      }
      request.warehouse = remote;
    }
  } else {
    request.warehouse =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(warehouses_)));
  }
  request.district = static_cast<int>(
      rng.NextBelow(minidb::Engine::kDistrictsPerWarehouse));
  request.customer =
      customer_zipf_ != nullptr
          ? static_cast<int64_t>(customer_zipf_->Sample(rng))
          : static_cast<int64_t>(rng.NextBelow(
                static_cast<uint64_t>(minidb::Engine::kCustomersPerDistrict)));

  if (request.type == TxnType::kNewOrder ||
      request.type == TxnType::kStockLevel) {
    const int count = static_cast<int>(
        rng.NextInRange(TpccOptions::min_items, TpccOptions::max_items));
    request.items.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      request.items.push_back(
          item_zipf_ != nullptr
              ? static_cast<int64_t>(item_zipf_->Sample(rng))
              : static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(
                    minidb::Engine::kItemsPerWarehouse))));
    }
  }
  return request;
}

TpccDriver::TpccDriver(minidb::Engine* engine, const TpccOptions& options)
    : engine_(engine), options_(options) {}

TpccResult TpccDriver::Run() {
  const uint64_t engine_aborts_before = engine_->aborted_count();
  TpccResult result = RunTyped(
      [this](const TxnRequest& request) { return engine_->Execute(request); },
      engine_->config().warehouses);
  result.engine_aborts = engine_->aborted_count() - engine_aborts_before;
  return result;
}

TpccResult TpccDriver::RunWith(const Executor& executor, int warehouses) {
  // A bool executor carries no error type, so every failure is final.
  return RunTyped(
      [&executor](const TxnRequest& request) {
        minidb::TxnOutcome outcome;
        outcome.committed = executor(request);
        return outcome;
      },
      warehouses);
}

TpccResult TpccDriver::RunUntil(const std::atomic<bool>& stop) {
  const uint64_t engine_aborts_before = engine_->aborted_count();
  TpccResult result = RunTypedUntil(
      [this](const TxnRequest& request) { return engine_->Execute(request); },
      engine_->config().warehouses, stop);
  result.engine_aborts = engine_->aborted_count() - engine_aborts_before;
  return result;
}

TpccResult TpccDriver::RunTyped(const TypedExecutor& executor, int warehouses) {
  return RunLoop(executor, warehouses, nullptr);
}

TpccResult TpccDriver::RunTypedUntil(const TypedExecutor& executor,
                                     int warehouses,
                                     const std::atomic<bool>& stop) {
  return RunLoop(executor, warehouses, &stop);
}

TpccResult TpccDriver::RunLoop(const TypedExecutor& executor, int warehouses,
                               const std::atomic<bool>* stop) {
  TpccResult result;
  std::mutex result_mu;
  const TpccGenerator generator(options_, warehouses);

  const auto run_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    threads.emplace_back([&, t] {
      statkit::Rng rng(options_.seed * 1000003 + static_cast<uint64_t>(t));
      // Home-warehouse affinity for partitioned runs; -1 = uniform draws.
      const int home = options_.partition_by_warehouse && warehouses > 0
                           ? t % warehouses
                           : -1;
      std::vector<double> local_latencies;
      local_latencies.reserve(static_cast<size_t>(options_.transactions_per_thread));
      uint64_t local_committed = 0;
      uint64_t local_aborted = 0;
      uint64_t local_retries = 0;
      uint64_t local_exhausted = 0;
      uint64_t local_non_retryable = 0;
      double local_backoff_us = 0.0;
      // Bounded run by default; open-ended (until `stop`) for long-running
      // server modes.
      for (int i = 0; stop != nullptr
                          ? !stop->load(std::memory_order_acquire)
                          : i < options_.transactions_per_thread;
           ++i) {
        const TxnRequest request = generator.Next(rng, home);
        const auto t0 = std::chrono::steady_clock::now();
        minidb::TxnOutcome outcome;
        int attempt = 0;
        for (;;) {
          outcome = executor(request);
          if (outcome.committed || !outcome.retryable() ||
              attempt >= options_.max_retries) {
            break;
          }
          // Capped exponential backoff with deterministic jitter in
          // [0.5, 1.0) of the nominal delay.
          const double nominal =
              std::min(options_.backoff_cap_us,
                       options_.backoff_base_us *
                           static_cast<double>(1ull << std::min(attempt, 20)));
          const double backoff = nominal * (0.5 + 0.5 * rng.NextDouble());
          local_backoff_us += backoff;
          simio::SleepUs(backoff);
          ++attempt;
          ++local_retries;
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (outcome.committed) {
          ++local_committed;
          local_latencies.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        } else {
          ++local_aborted;
          if (outcome.retryable()) {
            ++local_exhausted;  // retryable, but attempts ran out
          } else {
            ++local_non_retryable;
          }
        }
      }
      std::lock_guard<std::mutex> lock(result_mu);
      result.latencies_ns.insert(result.latencies_ns.end(),
                                 local_latencies.begin(), local_latencies.end());
      result.committed += local_committed;
      result.aborted += local_aborted;
      result.retries += local_retries;
      result.retries_exhausted += local_exhausted;
      result.non_retryable_aborts += local_non_retryable;
      result.backoff_time_us += local_backoff_us;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto run_end = std::chrono::steady_clock::now();
  result.duration_s = std::chrono::duration<double>(run_end - run_start).count();
  result.throughput_tps =
      result.duration_s > 0.0
          ? static_cast<double>(result.committed) / result.duration_s
          : 0.0;
  return result;
}

}  // namespace workload

// Failure injection: degrade one component hard and verify the profiler's
// blame follows it. This is the end-to-end sanity property of the whole
// system — whatever we break should become the top-ranked factor.
//
// All workload seeds are pinned so the suite replays the same request
// sequence on every run; the failpoint-based tests use per-test fault
// scopes so no armed failpoint can leak between tests.
#include <array>
#include <atomic>
#include <chrono>
#include <numeric>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/httpd/server.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"
#include "src/simio/disk.h"
#include "src/vprof/analysis/profiler.h"
#include "src/workload/ab.h"
#include "src/workload/tpcc.h"

namespace {

// Shared teardown: no failpoint survives a test, pass or fail.
class FailpointGuard : public ::testing::Test {
 protected:
  void SetUp() override { fault::DeactivateAll(); }
  void TearDown() override {
    fault::DeactivateAll();
    fault::ResetCounters();
  }
};
using FailureInjectionFaultTest = FailpointGuard;

double ContributionOf(const vprof::ProfileResult& result,
                      const std::string& label) {
  for (const auto& factor : result.all_factors) {
    if (factor.Label(result.function_names) == label) {
      return factor.contribution;
    }
  }
  return 0.0;
}

TEST(FailureInjectionTest, PathologicalFsyncBlamesFilFlush) {
  // A log device that stalls 20x for a third of its fsyncs: fil_flush (or
  // the log path above it) must dominate the profile even in the regime
  // where lock waits normally win.
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 8;  // low lock contention
  config.log_disk.fsync_spike_prob = 0.33;
  config.log_disk.fsync_spike_scale = 20.0;
  minidb::Engine engine(config);
  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  workload::TpccOptions options;
  options.threads = 2;  // little cross-transaction masking
  options.transactions_per_thread = 200;
  options.seed = 101;
  workload::TpccDriver driver(&engine, options);
  driver.Run();

  vprof::Profiler profiler("run_transaction", &graph, [&] { driver.Run(); });
  vprof::ProfileOptions profile_options;
  profile_options.top_k = 5;
  const auto result = profiler.Run(profile_options);

  const double flush = ContributionOf(result, "fil_flush");
  const double log_path = ContributionOf(result, "log_write_up_to");
  EXPECT_GT(std::max(flush, log_path), 0.4)
      << "injected fsync stalls must surface in the log path";
  EXPECT_GT(std::max(flush, log_path),
            ContributionOf(result, "os_event_wait"));
}

TEST(FailureInjectionTest, SlowWalDeviceBlamesTheWalPath) {
  minipg::PgConfig config;
  config.wal_disk.fsync_spike_prob = 0.4;
  config.wal_disk.fsync_spike_scale = 15.0;
  minipg::PgEngine engine(config);
  vprof::CallGraph graph;
  minipg::PgEngine::RegisterCallGraph(&graph);
  workload::TpccOptions options;
  options.threads = 2;
  options.transactions_per_thread = 250;
  options.seed = 102;
  workload::TpccDriver driver(nullptr, options);
  const auto run = [&] {
    driver.RunWith(
        [&engine](const minidb::TxnRequest& r) { return engine.Execute(r); },
        8);
  };
  run();
  vprof::Profiler profiler("exec_simple_query", &graph, run);
  const auto result = profiler.Run();
  // The WAL path (flush, its fsync, or the write-lock wait) dominates.
  const double wal = std::max(
      {ContributionOf(result, "XLogFlush"),
       ContributionOf(result, "issue_xlog_fsync"),
       ContributionOf(result, "LWLockAcquireOrWait")});
  EXPECT_GT(wal, 0.5);
  EXPECT_GT(wal, ContributionOf(result, "ExecProcNode"));
}

TEST(FailureInjectionTest, SlowDataDiskBlamesBufferPath) {
  // A pathological data disk in the constrained regime: the buffer path
  // (miss I/O under the pool mutex) must carry nearly all the variance.
  minidb::EngineConfig config = minidb::EngineConfig::MemoryConstrained();
  config.data_disk.read_mu = 5.7;   // ~300us reads
  config.data_disk.read_sigma = 0.8;
  minidb::Engine engine(config);
  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  workload::TpccOptions options;
  options.threads = 2;
  options.transactions_per_thread = 120;
  options.seed = 103;
  workload::TpccDriver driver(&engine, options);
  driver.Run();
  vprof::Profiler profiler("run_transaction", &graph, [&] { driver.Run(); });
  const auto result = profiler.Run();
  const double buffer_path =
      std::max(ContributionOf(result, "buf_page_get"),
               ContributionOf(result, "buf_pool_mutex_enter"));
  EXPECT_GT(buffer_path, 0.3);
}

// Satellite: everything downstream of the pinned seeds — request mix, disk
// latency draws, failpoint probability draws — is deterministic, so two
// identical single-threaded runs must produce identical disk op counts.
TEST_F(FailureInjectionFaultTest, SameSeedRunsAreDeterministic) {
  const auto run_counts = [] {
    minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
    config.warehouses = 2;
    config.log_disk.fault_scope = "fi_determinism";
    config.log_disk.error_latency_us = 5.0;
    minidb::Engine engine(config);
    workload::TpccOptions options;
    options.threads = 1;  // no scheduling nondeterminism
    options.transactions_per_thread = 60;
    options.seed = 4242;
    workload::TpccDriver driver(&engine, options);
    fault::ScopedFailpoint errors("fi_determinism/write_error",
                                  fault::Trigger::Probability(0.2, 99));
    const workload::TpccResult result = driver.Run();
    return std::array<uint64_t, 7>{
        engine.data_disk().reads(),  engine.data_disk().writes(),
        engine.log_disk().writes(),  engine.log_disk().fsyncs(),
        result.committed,            result.aborted,
        result.retries};
  };
  const auto first = run_counts();
  fault::ResetCounters();
  const auto second = run_counts();
  EXPECT_EQ(first, second);
}

// Fault class 1 — disk error storm: a quarter of the log device's writes
// fail (slowly), commits abort with retryable I/O errors and are retried.
// The profiler's top-ranked factor must be the log path. (Write errors, not
// fsync errors: a failed fsync wedges the log permanently — fsyncgate.)
TEST_F(FailureInjectionFaultTest, LogErrorStormTopFactorIsLogPath) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 8;  // low lock contention
  config.log_disk.fault_scope = "fi_error_storm";
  config.log_disk.error_latency_us = 3000.0;  // a failed write is slow
  minidb::Engine engine(config);
  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  workload::TpccOptions options;
  options.threads = 2;
  options.transactions_per_thread = 150;
  options.seed = 104;
  workload::TpccDriver driver(&engine, options);
  fault::ScopedFailpoint storm("fi_error_storm/write_error",
                               fault::Trigger::Probability(0.25, 11));
  driver.Run();  // warm-up
  vprof::Profiler profiler("run_transaction", &graph, [&] { driver.Run(); });
  const auto result = profiler.Run();
  ASSERT_FALSE(result.all_factors.empty());
  const std::string top = result.all_factors[0].Label(result.function_names);
  EXPECT_TRUE(top.find("fil_flush") != std::string::npos ||
              top.find("log_write_up_to") != std::string::npos)
      << "top factor was " << top;
  EXPECT_GT(engine.log_disk().fault_stats().write_errors, 0u);
}

// Fault class 2 — log-device stall: the WAL disk occasionally freezes for
// 12 ms (firmware hiccup). The top-ranked factor must be the WAL path.
TEST_F(FailureInjectionFaultTest, WalDeviceStallTopFactorIsWalPath) {
  minipg::PgConfig config;
  config.wal_disk.fault_scope = "fi_wal_stall";
  config.wal_disk.stall_us = 12000.0;
  minipg::PgEngine engine(config);
  vprof::CallGraph graph;
  minipg::PgEngine::RegisterCallGraph(&graph);
  workload::TpccOptions options;
  options.threads = 2;
  options.transactions_per_thread = 150;
  options.seed = 105;
  workload::TpccDriver driver(nullptr, options);
  const auto run = [&] {
    driver.RunWith(
        [&engine](const minidb::TxnRequest& r) { return engine.Execute(r); },
        8);
  };
  // Wal unit disks live in the "<scope>.<unit>" namespace.
  fault::ScopedFailpoint stall("fi_wal_stall.0/stall",
                               fault::Trigger::Probability(0.2, 17));
  run();  // warm-up
  vprof::Profiler profiler("exec_simple_query", &graph, run);
  const auto result = profiler.Run();
  ASSERT_FALSE(result.all_factors.empty());
  const std::string top = result.all_factors[0].Label(result.function_names);
  EXPECT_TRUE(top.find("XLogFlush") != std::string::npos ||
              top.find("issue_xlog_fsync") != std::string::npos ||
              top.find("LWLockAcquireOrWait") != std::string::npos)
      << "top factor was " << top;
}

// Fault class 3 — worker-pool saturation: more clients than the one worker
// and its bounded queue can hold. The latency is queueing, not execution:
// the analysis must attribute the bulk of the interval to queue wait, and
// the bounded queue must shed the overload with 503s instead of letting the
// backlog grow without bound. The saturation is built, not timed: each
// round sends one request from every client, and the first request parks
// the lone worker until the queue has overflowed and shed the clients it
// cannot hold, then holds it kHoldUs longer. So at least kQueueDepth - 1
// queued requests wait kHoldUs or more each, while only the parked one is
// in service that long.
TEST_F(FailureInjectionFaultTest, WorkerSaturationIsQueueWaitAndSheds) {
  constexpr int kClients = 8;
  constexpr int kQueueDepth = 4;
  // With the worker parked, one request is in service and kQueueDepth are
  // queued; the round's other clients are shed.
  constexpr uint64_t kShedPerRound = kClients - 1 - kQueueDepth;
  constexpr double kHoldUs = 50000.0;
  httpd::HttpServer* server_ptr = nullptr;
  std::atomic<bool> park{false};
  uint64_t shed_target = 0;  // published to the worker by `park`
  httpd::HttpdConfig config;
  config.workers = 1;
  config.max_queue_depth = kQueueDepth;
  config.backend_call = [&](uint64_t) {
    if (!park.exchange(false)) {
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_ptr->stats().requests_rejected < shed_target &&
           std::chrono::steady_clock::now() < deadline) {
      simio::SleepUs(100);
    }
    simio::SleepUs(kHoldUs);
  };
  httpd::HttpServer server(config);
  server_ptr = &server;
  vprof::CallGraph graph;
  httpd::HttpServer::RegisterCallGraph(&graph);
  workload::AbOptions options;
  options.clients = kClients;
  options.requests_per_client = 1;
  options.seed = 106;
  workload::AbDriver driver(&server, options);
  auto round = [&] {
    shed_target = server.stats().requests_rejected + kShedPerRound;
    park.store(true);
    driver.Run();
  };
  round();  // warm-up
  vprof::Profiler profiler("process_request", &graph, round);
  const auto result = profiler.Run();
  ASSERT_NE(result.analysis, nullptr);
  const double total_latency_ns = std::accumulate(
      result.latencies_ns.begin(), result.latencies_ns.end(), 0.0);
  ASSERT_GT(total_latency_ns, 0.0);
  // Most of every interval is spent queued behind the parked worker.
  EXPECT_GT(result.analysis->total_queue_wait_ns(), 0.5 * total_latency_ns);
  // And the server visibly shed part of the overload.
  EXPECT_GT(server.stats().requests_rejected, 0u);
  server.Shutdown();
}

}  // namespace

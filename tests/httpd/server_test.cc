#include "src/httpd/server.h"

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/failpoint.h"
#include "src/httpd/brigade.h"
#include "src/workload/ab.h"

namespace httpd {
namespace {

// Pin the allocator's pressure phase: server tests assert on system-alloc
// counts, which must not depend on wall-clock pressure windows.
class CalmEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { GlobalFreeList::SetPressureOverrideForTesting(0); }
  void TearDown() override {
    GlobalFreeList::SetPressureOverrideForTesting(-1);
  }
};
const auto* const kCalm =
    ::testing::AddGlobalTestEnvironment(new CalmEnvironment());

HttpdConfig FastConfig() {
  HttpdConfig config;
  config.workers = 2;
  config.file_disk.read_mu = 0.5;
  config.file_disk.serialize_access = false;
  return config;
}

TEST(BrigadeTest, AppendAndClearBalanceAllocator) {
  GlobalFreeList list(32, false);
  BucketAllocator alloc(&list, false);
  {
    Brigade brigade(&alloc);
    brigade.Append(BucketType::kHeap, 100);
    brigade.Append(BucketType::kFile, 169);
    EXPECT_EQ(brigade.buckets().size(), 2u);
    EXPECT_EQ(brigade.TotalBytes(), 269u);
  }
  // Brigade destructor freed both buckets.
  EXPECT_GE(alloc.local_free(), 0);
}

TEST(PageCacheTest, MissThenHit) {
  simio::DiskConfig disk_config;
  disk_config.read_mu = 0.5;
  disk_config.serialize_access = false;
  simio::Disk disk(disk_config);
  PageCache cache(16, &disk);
  EXPECT_FALSE(cache.ReadFile(1, 169));  // miss: disk read
  EXPECT_TRUE(cache.ReadFile(1, 169));   // hit
  EXPECT_EQ(disk.reads(), 1u);
}

TEST(FiltersTest, PassBrigadeRunsWholeChain) {
  GlobalFreeList list(32, false);
  BucketAllocator alloc(&list, false);
  Brigade brigade(&alloc);
  brigade.Append(BucketType::kHeap, 169);
  Filter core{Filter::Kind::kCoreOutput, nullptr};
  Filter header{Filter::Kind::kHeader, &core};
  Filter content_length{Filter::Kind::kContentLength, &header};
  ApPassBrigade(&content_length, &brigade);
  // content-length added one bucket, header two.
  EXPECT_EQ(brigade.buckets().size(), 4u);
}

TEST(HttpServerTest, ServesSingleRequest) {
  HttpServer server(FastConfig());
  server.HandleRequestBlocking(0);
  EXPECT_EQ(server.stats().requests_served, 1u);
  server.Shutdown();
}

TEST(HttpServerTest, ServesManyConcurrentClients) {
  HttpServer server(FastConfig());
  workload::AbOptions options;
  options.clients = 4;
  options.requests_per_client = 50;
  workload::AbDriver driver(&server, options);
  const workload::AbResult result = driver.Run();
  EXPECT_EQ(result.completed, 200u);
  EXPECT_EQ(result.latencies_ns.size(), 200u);
  EXPECT_EQ(server.stats().requests_served, 200u);
  // The default queue is unbounded: nothing is ever shed.
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(server.stats().requests_rejected, 0u);
  EXPECT_GT(result.requests_per_s, 0.0);
  server.Shutdown();
}

TEST(HttpServerTest, ShedsLoadWhenQueueSaturates) {
  fault::DeactivateAll();
  HttpdConfig config = FastConfig();
  config.workers = 1;
  config.max_queue_depth = 1;
  // The single worker parks inside its first request until released, so
  // the one queue slot fills and stays full by construction, not by timing.
  std::promise<void> parked;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  config.backend_call = [&](uint64_t) {
    if (first.exchange(false)) {
      parked.set_value();
      released.wait();
    }
  };
  HttpServer server(config);
  std::thread holder(
      [&] { EXPECT_EQ(server.HandleRequestBlocking(0), RequestStatus::kOk); });
  parked.get_future().wait();

  // Two submissions race for the one queue slot. The queued one cannot
  // return before the worker is released, so the first to return is the
  // other one, shed at once.
  std::mutex mu;
  std::condition_variable returned_cv;
  std::vector<RequestStatus> returned;
  auto submit = [&](uint64_t file_id) {
    const RequestStatus status = server.HandleRequestBlocking(file_id);
    std::lock_guard<std::mutex> lock(mu);
    returned.push_back(status);
    returned_cv.notify_all();
  };
  std::thread second(submit, 1);
  std::thread third(submit, 2);
  {
    std::unique_lock<std::mutex> lock(mu);
    returned_cv.wait(lock, [&] { return !returned.empty(); });
    EXPECT_EQ(returned[0], RequestStatus::kServiceUnavailable);
  }
  release.set_value();
  second.join();
  third.join();
  holder.join();
  ASSERT_EQ(returned.size(), 2u);
  EXPECT_EQ(returned[1], RequestStatus::kOk);
  EXPECT_EQ(server.stats().requests_rejected, 1u);
  server.Shutdown();
}

TEST(HttpServerTest, SaturatedServerAccountsEveryRequest) {
  fault::DeactivateAll();
  HttpdConfig config = FastConfig();
  config.workers = 1;
  config.max_queue_depth = 2;
  config.file_disk.fault_scope = "httpd_account";
  config.file_disk.stall_us = 20000.0;
  HttpServer server(config);
  workload::AbResult result;
  {
    fault::ScopedFailpoint stall("httpd_account/stall",
                                 fault::Trigger::Always());
    workload::AbOptions options;
    options.clients = 6;
    options.requests_per_client = 25;
    workload::AbDriver driver(&server, options);
    result = driver.Run();
  }
  // Every submission is either served or shed — none silently vanish.
  EXPECT_EQ(result.completed + result.rejected, 150u);
  EXPECT_GT(result.rejected, 0u);  // 6 clients vs. capacity for 3
  EXPECT_EQ(result.latencies_ns.size(), result.completed);
  const HttpdStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, result.completed);
  EXPECT_EQ(stats.requests_rejected, result.rejected);
  server.Shutdown();
}

TEST(HttpServerTest, ShutdownIsIdempotent) {
  HttpServer server(FastConfig());
  server.HandleRequestBlocking(1);
  server.Shutdown();
  server.Shutdown();
}

TEST(HttpServerTest, MemoryPressureProducesSystemAllocs) {
  HttpdConfig config = FastConfig();
  config.global_free_blocks = 4;  // tiny pool: pressure guaranteed
  HttpServer server(config);
  workload::AbOptions options;
  options.clients = 4;
  options.requests_per_client = 50;
  workload::AbDriver driver(&server, options);
  driver.Run();
  EXPECT_GT(server.stats().system_allocs, 0u);
  server.Shutdown();
}

TEST(HttpServerTest, BulkAllocationReducesGlobalTrips) {
  auto run = [](bool bulk) {
    HttpdConfig config;
    config.workers = 2;
    config.bulk_allocation = bulk;
    config.global_free_blocks = 4;  // pressure regime
    config.file_disk.read_mu = 0.5;
    config.file_disk.serialize_access = false;
    HttpServer server(config);
    workload::AbOptions options;
    options.clients = 4;
    options.requests_per_client = 100;
    workload::AbDriver driver(&server, options);
    driver.Run();
    const uint64_t sys = server.stats().system_allocs;
    server.Shutdown();
    return sys;
  };
  const uint64_t lean_allocs = run(false);
  const uint64_t bulk_allocs = run(true);
  EXPECT_LT(bulk_allocs, lean_allocs);
}

TEST(HttpServerTest, CallGraphShape) {
  vprof::CallGraph graph;
  HttpServer::RegisterCallGraph(&graph);
  const auto root = vprof::RegisterFunction("process_request");
  EXPECT_EQ(graph.Children(root).size(), 2u);
  EXPECT_GE(graph.Height(root), 3);
}

}  // namespace
}  // namespace httpd
